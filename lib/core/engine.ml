module Tree = Smoqe_xml.Tree
module Parser = Smoqe_xml.Parser
module Pull = Smoqe_xml.Pull
module Serializer = Smoqe_xml.Serializer
module Dtd = Smoqe_xml.Dtd
module Dtd_parser = Smoqe_xml.Dtd_parser
module Validator = Smoqe_xml.Validator
module Rx_parser = Smoqe_rxpath.Parser
module Compile = Smoqe_automata.Compile
module Mfa = Smoqe_automata.Mfa
module Tables = Smoqe_automata.Tables
module Policy = Smoqe_security.Policy
module Derive = Smoqe_security.Derive
module Tenant_registry = Smoqe_security.Tenant_registry
module Rewriter = Smoqe_rewrite.Rewriter
module Eval_dom = Smoqe_hype.Eval_dom
module Eval_stax = Smoqe_hype.Eval_stax
module Stats = Smoqe_hype.Stats
module Tax = Smoqe_tax.Tax
module Codec = Smoqe_tax.Codec
module Error = Smoqe_robust.Error
module Budget = Smoqe_robust.Budget
module Failpoint = Smoqe_robust.Failpoint
module Plan_cache = Smoqe_plan.Plan_cache
module Canon = Smoqe_plan.Canon
module Shared = Smoqe_automata.Shared
module Ast = Smoqe_rxpath.Ast
module Update = Smoqe_update.Update

(* Teach the taxonomy this stack's exception types: the guard at the
   façade maps anything the libraries throw into one Error.t.  Runs once,
   when this module is initialized. *)
let () =
  Error.register_classifier (function
    | Pull.Error (line, col, msg) ->
      Some (Error.Parse_error { loc = Some (Error.location ~line ~col ()); msg })
    | Dtd_parser.Error (off, msg) ->
      Some
        (Error.Parse_error
           { loc = None; msg = Printf.sprintf "DTD offset %d: %s" off msg })
    | Derive.Unsupported msg -> Some (Error.Policy_error msg)
    | Smoqe_rewrite.Expr_rewriter.Too_large n ->
      Some
        (Error.Query_error
           (Printf.sprintf "expression rewriting exceeded the size budget \
                            (reached %.2g)" n))
    | Smoqe_hype.Engine.Driver_error msg ->
      Some (Error.Internal ("evaluation driver: " ^ msg))
    | _ -> None)

type mode =
  | Dom
  | Stax

type source =
  | From_string of string
  | From_file of string
  | From_tree

(* A cached plan: the compiled (possibly rewritten) automaton plus the
   compile-time facts a later hit needs — the state count for budget
   re-checks without an Mfa traversal, the schema-emptiness verdict so
   hits skip the satisfiability analysis, and the compile cost the hit
   avoided paying again. *)
type plan = {
  plan_mfa : Mfa.t;
  plan_states : int;
  plan_empty : bool;  (* the DTD proves the query selects nothing *)
  plan_shared : Shared.t option;
      (* present when two or more distinct queries were merged: the
         prefix-sharing merge whose combined automaton [plan_mfa] is (so
         the table machinery below applies to batches unchanged);
         absent on a single-query plan *)
  plan_compile_ms : float;
  plan_tables : (Tree.t * Tables.t) option Atomic.t;
      (* The table specialization riding the plan, tagged with the
         tree it was built for.  Tag lineage is the validity key
         ([Tables.built_for]): an incremental update that splices the
         tree without interning any new tag preserves the interning token,
         and the table — pure tag-id arithmetic — stays valid; a swap to
         an unrelated tree (or a splice that grew the tag table) changes
         the token and forces respecialization.  Atomic: plans are shared
         across domains; last-writer-wins is benign (both writers
         hold tables valid for their own snapshot). *)
}

(* Concurrency model (DESIGN.md §9).  One engine serves queries from many
   sessions, and callers may run those on distinct domains in true
   parallel.  The split:

   - [dtd] is immutable; [Tree.t] and [Tax.t] values are deeply immutable
     once built — readers never lock *while evaluating* on them.
   - Everything [mutable] below is guarded by [lock].  A query takes the
     lock only long enough to read a consistent {tree, source, tax}
     snapshot; compile and evaluation run outside it, on the snapshot.
   - [principals] and [plan_cache] each have their own internal mutex.
     Lock order is engine [lock] → cache lock (invalidation under [lock]
     probes the cache); neither the cache nor the registry calls back
     into the engine, so the order cannot invert. *)
type t = {
  lock : Mutex.t;
  mutable tree : Tree.t;
  mutable source : source;
  dtd : Dtd.t option;
  mutable tax : Tax.t option;
  plan_cache : plan Plan_cache.t;
  mutable saved_compile_ms : float;
  principals : Tenant_registry.t;
      (* group -> canonical policy key -> the shared derived view *)
}

(* What one query evaluates against: an immutable view of the engine's
   serving state, taken atomically at query start.  [replace_document] or
   [build_index] landing mid-query cannot tear it — the query answers
   entirely against the tree/index pair it started with. *)
type snapshot = {
  snap_tree : Tree.t;
  snap_source : source;
  snap_tax : Tax.t option;
}

type outcome = {
  answers : int list;
  answer_xml : string list;
  stats : Stats.t;
  mfa : Mfa.t;
  cans_size : int;
}

let log_src = Logs.Src.create "smoqe.engine" ~doc:"SMOQE engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

let make ?dtd tree source =
  {
    lock = Mutex.create ();
    tree;
    source;
    dtd;
    tax = None;
    plan_cache = Plan_cache.create ();
    saved_compile_ms = 0.;
    principals = Tenant_registry.create ();
  }

let locked t f = Mutex.protect t.lock f

let snapshot t =
  locked t (fun () ->
      { snap_tree = t.tree; snap_source = t.source; snap_tax = t.tax })

let validate_against dtd tree =
  match Validator.validate dtd tree with
  | Ok () -> Ok ()
  | Error (err :: _) ->
    Error (Fmt.str "document invalid: %a" Validator.pp_error err)
  | Error [] -> Ok ()

let of_tree ?dtd tree = make ?dtd tree From_tree

let with_dtd ?dtd tree source =
  match dtd with
  | None -> Ok (make tree source)
  | Some d ->
    (match validate_against d tree with
    | Ok () -> Ok (make ~dtd:d tree source)
    | Error msg -> Error msg)

(* Typed-error constructors: malformed input — a syntax error or a
   document that does not conform to the given DTD — comes back as
   [Error.Parse_error] (CLI exit code 2), budget trips as
   [Budget_exceeded] (exit 3), the same taxonomy the query path already
   speaks. *)
let of_string_robust ?budget ?dtd input =
  match Error.guard (fun () -> Parser.tree_of_string ?budget input) with
  | Error e -> Error e
  | Ok tree ->
    (match with_dtd ?dtd tree (From_string input) with
    | Ok t -> Ok t
    | Error msg -> Error (Error.Parse_error { loc = None; msg }))

let of_file_robust ?budget ?dtd path =
  match Error.guard (fun () -> Parser.tree_of_file ?budget path) with
  | Error (Error.Parse_error { loc = Some l; msg }) when l.Error.file = None ->
    Error
      (Error.Parse_error { loc = Some { l with Error.file = Some path }; msg })
  | Error e -> Error e
  | Ok tree ->
    (match with_dtd ?dtd tree (From_file path) with
    | Ok t -> Ok t
    | Error msg -> Error (Error.Parse_error { loc = None; msg }))

let document t = locked t (fun () -> t.tree)
let dtd t = t.dtd

(* --- principals ------------------------------------------------------------ *)

(* A group is the one principal (paper §2): its policy is an annotated
   DTD, and its queries are rewritten through the view derived from it.
   The registry keys every group by its canonical policy key and derives
   the view at most once per key — groups whose annotations agree after
   normalization share the derivation, the rewrite and (via the plan
   cache's policy-key dimension) every compiled plan.  Re-registering the
   same policy is a no-op that keeps plans warm; moving a group to a new
   policy, or removing it, retires a key whose last group left: the
   plans cached under it are generationally invalidated. *)
let retire t = Option.iter (Plan_cache.invalidate_policy_key t.plan_cache)

let register_policy t ~group policy =
  match t.dtd with
  | None -> Error "engine has no DTD: policies need a schema"
  | Some d when not (Dtd.equal d (Policy.dtd policy)) ->
    Error "policy is defined over a different DTD"
  | Some _ ->
    (* Derivation happens inside the registry (once per distinct key),
       outside the engine lock. *)
    (match Tenant_registry.register t.principals ~tenant:group policy with
    | exception Derive.Unsupported msg -> Error msg
    | reg ->
      retire t reg.Tenant_registry.reg_retired;
      Log.info (fun m ->
          m "group %s -> policy key %s%s" group reg.Tenant_registry.reg_key
            (if reg.Tenant_registry.reg_shared then " (shared)" else ""));
      Ok ())

let remove_policy t ~group =
  retire t (Tenant_registry.remove t.principals ~tenant:group)

let view t ~group =
  Option.map snd (Tenant_registry.lookup t.principals ~tenant:group)

let view_dtd t ~group = Option.map Derive.view_dtd (view t ~group)
let tenant_counters t = Tenant_registry.counters t.principals

(* The one resolver: the principal a request runs under, as the view it
   is rewritten through together with that view's policy key — [None] for
   an administrative request on the document itself.  Compile and update
   use the view returned here and never look the group up again, so a
   concurrent re-registration cannot pair one policy's key with another
   policy's view. *)
let unknown_group g = Error.Policy_error (Printf.sprintf "unknown group %s" g)

let principal t group =
  match group with
  | None -> Ok None
  | Some g ->
    (match Tenant_registry.lookup t.principals ~tenant:g with
    | None -> Error (unknown_group g)
    | Some route -> Ok (Some route))

(* Swap the served document under the standing DTD, views and sessions —
   the serving story: policies persist, data rolls over.  The new tree
   must satisfy the same DTD (views are derived from it). *)
let replace_document t tree =
  let checked =
    match t.dtd with None -> Ok () | Some d -> validate_against d tree
  in
  match checked with
  | Error msg -> Error msg
  | Ok () ->
    locked t (fun () ->
        t.tree <- tree;
        t.source <- From_tree;
        (* the index describes the old tree *)
        t.tax <- None;
        Plan_cache.invalidate_all t.plan_cache);
    Log.info (fun m -> m "document replaced (%d nodes)" (Tree.n_nodes tree));
    Ok ()

let build_index t =
  (* Build outside the lock (it is O(document)); publish only if the
     document has not been swapped underneath the build. *)
  let tree = locked t (fun () -> t.tree) in
  let idx = Tax.build tree in
  locked t (fun () -> if t.tree == tree then t.tax <- Some idx)

let index t = locked t (fun () -> t.tax)

let save_index t path =
  match index t with
  | None -> Error "no index built"
  | Some idx ->
    (match Codec.save path idx with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg
    | exception Failpoint.Injected site -> Error ("injected fault at " ^ site))

let load_index t path =
  let loaded =
    match
      Error.guard (fun () ->
          Failpoint.trigger "index.load";
          Codec.load path)
    with
    | Ok r -> r
    | Error e -> Error (Error.to_string e)
  in
  match loaded with
  | Error msg -> Error msg
  | Ok idx ->
    locked t (fun () ->
        if Tax.n_nodes idx <> Tree.n_nodes t.tree then
          Error "index does not match the document"
        else begin
          t.tax <- Some idx;
          Ok ()
        end)

(* --- query compilation ---------------------------------------------------- *)

let compile_ast ?view ?budget path =
  Error.guard (fun () ->
      Failpoint.trigger "plan.compile";
      let mfa =
        match view with
        | None -> Compile.compile ?budget path
        | Some v -> Rewriter.rewrite v path
      in
      let mfa = Smoqe_automata.Optimize.optimize mfa in
      (* A rewritten view query can be much larger than the text the user
         typed: re-check the state budget on the final automaton. *)
      Option.iter (fun b -> Budget.check_states b (Mfa.n_states mfa)) budget;
      mfa)


(* --- the plan cache ------------------------------------------------------- *)

let statically_empty t mfa =
  match t.dtd with
  | None -> false
  | Some d ->
    Smoqe_automata.Analysis.satisfiable mfa d = Smoqe_automata.Analysis.Empty

let mode_string = function Dom -> "dom" | Stax -> "stax"

(* The tag scope of a compiled plan: the element names the {e query
   text} mentions.  It is the plan's {e invalidation} scope — a
   compiled plan depends only on the view and the DTD, never on the
   document, so dropping (or keeping) it on an update is purely a
   freshness policy; subtree-scoped invalidation keeps every warm plan
   whose named tags an update never touched, which is what preserves
   the hit rate under mixed read/update serving (bench e16).  The scope
   deliberately comes from the query AST rather than the compiled
   automaton: security-view rewriting expands wildcard and descendant
   steps into explicit per-type transitions over the view DTD, which
   would smear every member plan's scope across the whole alphabet and
   turn scoped invalidation into a generation bump.  Wildcards and
   [text()] are navigation, not a dependence on any particular tag; a
   query naming no tag at all gets [All_tags] conservatively. *)
let plan_scope paths =
  let names = Hashtbl.create 8 in
  let rec path_tags = function
    | Ast.Self | Ast.Wildcard | Ast.Text -> ()
    | Ast.Tag s -> Hashtbl.replace names s ()
    | Ast.Seq (p, q) | Ast.Union (p, q) -> path_tags p; path_tags q
    | Ast.Star p -> path_tags p
    | Ast.Filter (p, q) -> path_tags p; qual_tags q
  and qual_tags = function
    | Ast.True -> ()
    | Ast.Exists p | Ast.Value_eq (p, _) -> path_tags p
    | Ast.Not q -> qual_tags q
    | Ast.And (a, b) | Ast.Or (a, b) -> qual_tags a; qual_tags b
  in
  List.iter path_tags paths;
  match Hashtbl.fold (fun n () acc -> n :: acc) names [] with
  | [] -> Plan_cache.All_tags
  | names -> Plan_cache.Tags names

let set_plan_cache_capacity t n = Plan_cache.set_capacity t.plan_cache n

let plan_cache_counters t =
  Plan_cache.to_assoc t.plan_cache
  @ [ ("saved_compile_ms",
       int_of_float (locked t (fun () -> t.saved_compile_ms))) ]

(* Plan acquisition for a request of one or more query texts.  Returns,
   per slot, the position of the slot's member in the plan (the owner id
   of a merge; 0 for a single-query plan) or the slot's own parse or
   compile error, together with the plan and whether it was a cache hit.

   Identical texts collapse onto one member, and so do canonically equal
   ones ({!Canon}).  One distinct member is a single query: it is cached
   under the single-query key and never merged, so [run_many [q]] and
   [query q] share one plan.  When every slot carries the same text, that
   raw text probes the cache before anything is tokenized — canonical
   traffic (the common case for machine-issued repeats) hits without
   being parsed.  Two or more distinct members are compiled, merged
   prefix-sharing-style ({!Shared.merge}) and cached under the batch key:
   the sorted unique member keys, so permutations and duplicate mixes of
   a warm batch hit too.

   A plan is inserted only after every member compiled: a budget trip, an
   injected ["plan.compile"] fault or a member that fails to compile
   leaves the cache untouched (the owner table of a partial merge numbers
   the surviving subset, which a later identical request must not
   inherit). *)
let plan_for t ~route ~mode ~use_index ?budget texts =
  let cache = t.plan_cache in
  let cacheable = Plan_cache.capacity cache > 0 in
  (* The policy key, not the group, is the cache dimension: every group
     sharing the key shares one entry per query. *)
  let policy_key = Option.map fst route and view = Option.map snd route in
  let key query =
    { Plan_cache.group = None; policy_key; query; mode = mode_string mode;
      use_index = use_index = Some true }
  in
  let probe query =
    if cacheable then Plan_cache.find cache (key query) else None
  in
  let hit plan =
    (* The budget still applies to a plan someone else paid to compile. *)
    Result.map
      (fun () ->
        locked t (fun () ->
            t.saved_compile_ms <- t.saved_compile_ms +. plan.plan_compile_ms);
        (plan, true))
      (Error.guard (fun () ->
           Option.iter
             (fun b -> Budget.check_states b plan.plan_states)
             budget))
  in
  let text0 = texts.(0) in
  let one_text = Array.for_all (String.equal text0) texts in
  match if one_text then probe text0 else None with
  | Some plan -> (Array.map (fun _ -> Ok 0) texts, hit plan)
  | None ->
    let parsed =
      Array.map
        (fun text ->
          match Rx_parser.path_of_string text with
          | Error msg -> Error (Error.Query_error msg)
          | Ok path -> Ok (Canon.to_key path, path))
        texts
    in
    let by_key = Hashtbl.create 16 in
    Array.iter
      (function
        | Ok (k, path) ->
          if not (Hashtbl.mem by_key k) then Hashtbl.add by_key k path
        | Error _ -> ())
      parsed;
    let keys =
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key [])
    in
    (* Canonical query text never contains NUL, so the batch key cannot
       collide with a single-query entry. *)
    let pkey =
      match keys with
      | [ k ] -> k
      | _ -> "batch\x00" ^ String.concat "\x00" keys
    in
    let member = Hashtbl.create 16 in
    let slots () =
      Array.map
        (function Error e -> Error e | Ok (k, _) -> Hashtbl.find member k)
        parsed
    in
    if keys = [] then
      let slots = slots () in
      (slots, Error (Result.get_error slots.(0)))
    else
      match if one_text && pkey = text0 then None else probe pkey with
      | Some plan ->
        List.iteri (fun i k -> Hashtbl.replace member k (Ok i)) keys;
        (slots (), hit plan)
      | None ->
        if cacheable then Plan_cache.record_miss cache;
        (* The compiles below run outside the engine lock, so a concurrent
           policy retirement or [replace_document] can invalidate this key
           mid-flight.  Capture the generation {e before} the compiles
           read the view: if it moves, the conditional [add ~gen] refuses
           the insert and the plan minted under the old view is served
           once, never cached. *)
        let gen = Plan_cache.generation cache (key pkey) in
        (* Wall clock: process CPU time would sum every domain's work. *)
        let t0 = Unix.gettimeofday () in
        let n_ok = ref 0 in
        let survivors =
          List.filter_map
            (fun k ->
              match
                compile_ast ?view ?budget (Hashtbl.find by_key k)
              with
              | Error e ->
                Hashtbl.replace member k (Error e);
                None
              | Ok mfa ->
                Hashtbl.replace member k (Ok !n_ok);
                incr n_ok;
                Some mfa)
            keys
        in
        let slots = slots () in
        let plan_of shared mfa =
          let states = Mfa.n_states mfa in
          Option.iter (fun b -> Budget.check_states b states) budget;
          let plan_empty = statically_empty t mfa in
          {
            plan_mfa = mfa;
            plan_states = states;
            plan_empty;
            plan_shared = shared;
            plan_compile_ms = (Unix.gettimeofday () -. t0) *. 1000.;
            plan_tables = Atomic.make None;
          }
        in
        let plan =
          match survivors with
          | [] ->
            (* every member failed: any member's error stands in *)
            Error (Result.get_error slots.(0))
          | [ mfa ] -> Error.guard (fun () -> plan_of None mfa)
          | _ ->
            Error.guard (fun () ->
                let sh = Shared.merge (Array.of_list survivors) in
                plan_of (Some sh) sh.Shared.mfa)
        in
        (match plan with
        | Ok plan when cacheable && List.compare_lengths survivors keys = 0 ->
          Plan_cache.add cache ~gen
            ~scope:(plan_scope (List.map (Hashtbl.find by_key) keys))
            (key pkey) plan
        | Ok _ | Error _ -> ());
        (slots, Result.map (fun plan -> (plan, false)) plan)

let rewrite_only t ~group text =
  match Rx_parser.path_of_string text with
  | Error msg -> Error (Error.Query_error msg)
  | Ok path ->
    (match view t ~group with
    | None -> Error (unknown_group group)
    | Some view -> compile_ast ~view path)

let answer_xml_one snap n =
  let tree = snap.snap_tree in
  if Tree.is_text tree n then begin
    let backing, off, len = Tree.content_slice tree n in
    let buf = Buffer.create (len + 8) in
    Serializer.add_escaped_text buf backing off len;
    Buffer.contents buf
  end
  else Serializer.subtree_to_string ~indent:false tree n

(* --- evaluation ------------------------------------------------------------ *)

let budget_error (what, limit) stats =
  Error.Budget_exceeded
    { what; limit; partial_stats = Stats.to_assoc stats }

(* What one pass over the document produced, before demultiplexing into
   slots: answers and serialized fragments per member position, and the
   pass's joint counters. *)
type pass = {
  by_member : int list array;
  xml_of : int -> string list;
  pass_stats : Stats.t;
  pass_cans : int;
}

(* DOM evaluation on a snapshot; [degraded_from_stax] marks a retry after
   a StAX driver failure.  Requesting the index without one loaded is
   served unindexed and recorded as a degradation rather than failed. *)
let run_dom snap plan ?use_index ?budget ?trace ~degraded_from_stax () =
  let mfa = plan.plan_mfa in
  let tax =
    match use_index, snap.snap_tax with
    | Some false, _ | _, None -> None
    | (Some true | None), Some idx -> Some idx
  in
  (* Warm queries reuse the table riding the plan — for a merged
     plan it covers the whole combined automaton, so a warm batch skips
     both the merge and the specialization.  A cold plan (or one whose
     snapshot tree left the cached pair's tag lineage — a
     replace_document raced the plan fetch, or an update interned new
     tags) specializes and publishes.  The publish is a plain Atomic.set:
     both sides of any race hold tables valid for their own snapshot, and
     Eval_dom re-validates with [Tables.built_for] anyway. *)
  let tables, spec_us =
    match Atomic.get plan.plan_tables with
    | Some (_, tb) when Tables.built_for tb snap.snap_tree -> (tb, 0)
    | Some _ | None ->
      let tb = Tables.of_tree mfa.Mfa.nfa snap.snap_tree in
      Atomic.set plan.plan_tables (Some (snap.snap_tree, tb));
      (tb, Tables.spec_us tb)
  in
  let r =
    Eval_dom.run_slots ?tax ?budget ?trace ~tables ?shared:plan.plan_shared mfa
      snap.snap_tree
  in
  let stats = r.Eval_dom.m_stats in
  (* Eval_dom charges specialization time only for tables it built itself;
     a table built here (to be published on the plan) is charged here. *)
  stats.Stats.table_spec_us <- stats.Stats.table_spec_us + spec_us;
  match r.Eval_dom.m_budget_hit with
  | Some hit -> Error (budget_error hit stats)
  | None ->
    if degraded_from_stax then begin
      stats.Stats.degraded_stax_retry <- 1;
      (* the failed StAX scan consumed a pass over the data too *)
      stats.Stats.passes_over_data <- stats.Stats.passes_over_data + 1
    end;
    if use_index = Some true && tax = None then begin
      stats.Stats.degraded_no_index <- 1;
      Log.warn (fun m -> m "index requested but unavailable: unindexed pass")
    end;
    (* Batch answer sets overlap heavily — shared prefixes select shared
       nodes — so each distinct answer node is serialized once per pass,
       where sequential serving would re-serialize per query. *)
    let frag_memo = Hashtbl.create 64 in
    let xml_of n =
      match Hashtbl.find_opt frag_memo n with
      | Some s -> s
      | None ->
        let s = answer_xml_one snap n in
        Hashtbl.add frag_memo n s;
        s
    in
    Ok
      {
        by_member = r.Eval_dom.by_query;
        xml_of = (fun p -> List.map xml_of r.Eval_dom.by_query.(p));
        pass_stats = stats;
        pass_cans = r.Eval_dom.m_cans_size;
      }

let run_stax snap plan ?budget ?trace () =
  let run input =
    let r =
      Eval_stax.run_slots ~capture:true ?budget ?trace
        ?shared:plan.plan_shared plan.plan_mfa input
    in
    match r.Eval_stax.m_budget_hit with
    | Some hit -> Error (budget_error hit r.Eval_stax.m_stats)
    | None ->
      Ok
        {
          by_member = r.Eval_stax.by_query;
          xml_of = (fun p -> List.map snd r.Eval_stax.by_query_captured.(p));
          pass_stats = r.Eval_stax.m_stats;
          pass_cans = r.Eval_stax.m_cans_size;
        }
  in
  match snap.snap_source with
  | From_string s -> run (Eval_stax.Stream (Pull.of_string s))
  | From_file path ->
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> run (Eval_stax.Stream (Pull.of_channel ic)))
  | From_tree -> run (Eval_stax.Tree snap.snap_tree)

(* The one evaluation of a plan, degradation ladder included. *)
let evaluate snap plan ~mode ?use_index ?budget ?trace () =
  let dom ~degraded_from_stax =
    Result.join
      (Error.guard (fun () ->
           run_dom snap plan ?use_index ?budget ?trace ~degraded_from_stax ()))
  in
  if plan.plan_empty then begin
    (* The schema proves the plan selects nothing: skip the document. *)
    Log.info (fun m -> m "query statically empty against the schema");
    let width =
      match plan.plan_shared with Some sh -> sh.Shared.n_queries | None -> 1
    in
    Ok
      {
        by_member = Array.make width [];
        xml_of = (fun _ -> []);
        pass_stats = Stats.zero ();
        pass_cans = 0;
      }
  end
  else
    match mode with
    | Dom -> dom ~degraded_from_stax:false
    | Stax ->
      (match
         Result.join
           (Error.guard (fun () -> run_stax snap plan ?budget ?trace ()))
       with
      | Ok pass -> Ok pass
      | Error ((Error.Budget_exceeded _ | Error.Query_error _
               | Error.Policy_error _) as e) ->
        Error e
      | Error stax_failure ->
        (* Degradation ladder: a StAX driver failure (I/O fault, parse
           error on the stored source, contract violation) is retried once
           in DOM mode on the already-loaded tree. *)
        Log.warn (fun m ->
            m "StAX evaluation failed (%s): retrying in DOM mode"
              (Error.to_string stax_failure));
        dom ~degraded_from_stax:true)

(* --- serving: one pipeline for one query and for many -------------------- *)

(* Plan, evaluate once, demultiplex: every request — a single query, a
   batch, an update's target path — takes this road.  A slot whose
   member failed to parse or compile gets its own error without sinking
   the rest; a failure of the plan as a whole or of the one pass fails
   every other slot.  [snap] pins the evaluation to a caller's snapshot;
   by default one atomic read of the serving state is taken after the
   plan, and the evaluation never looks at the live engine again, so a
   concurrent replace_document or index (re)build cannot tear it. *)
let run_slots t ~route ?snap ~mode ?use_index ?budget ?trace texts =
  let slots, planned = plan_for t ~route ~mode ~use_index ?budget texts in
  let fail e =
    Array.map (function Error own -> Error own | Ok _ -> Error e) slots
  in
  match planned with
  | Error e -> (fail e, Stats.zero ())
  | Ok (plan, cached) ->
    let snap = match snap with Some s -> s | None -> snapshot t in
    (match evaluate snap plan ~mode ?use_index ?budget ?trace () with
    | Error e -> (fail e, Stats.zero ())
    | Ok pass ->
      let stats = pass.pass_stats in
      if cached then begin
        stats.Stats.plan_cache_hit <- 1;
        (* A warm member hit is a cross-group artifact reuse: the plan
           lives under the canonical policy key, so whichever group
           compiled it paid for everyone sharing the key. *)
        if route <> None then stats.Stats.policy_key_hits <- 1
      end;
      (* A pass serving one slot hands over its own counters; several
         slots each get an exact private copy (merge into a zero
         accumulator is the identity) with their own answer count. *)
      let slot_stats answers =
        if Array.length slots = 1 then stats
        else begin
          let c = Stats.zero () in
          Stats.merge_into ~into:c stats;
          c.Stats.answers <- List.length answers;
          c
        end
      in
      ( Array.map
          (function
            | Error e -> Error e
            | Ok p ->
              let answers = pass.by_member.(p) in
              Ok
                {
                  answers;
                  answer_xml = pass.xml_of p;
                  stats = slot_stats answers;
                  mfa = plan.plan_mfa;
                  cans_size = pass.pass_cans;
                })
          slots,
        stats ))

(* The one entry: resolve the principal, then run every text as a slot of
   one request. *)
let serve t ?group ?(mode = Dom) ?use_index ?budget ?trace texts =
  let n = List.length texts in
  if n = 0 then ([||], Stats.zero ())
  else
    match principal t group with
    | Error e -> (Array.make n (Error e), Stats.zero ())
    | Ok route ->
      run_slots t ~route ~mode ?use_index ?budget ?trace (Array.of_list texts)

let query_robust t ?group ?mode ?use_index ?budget ?trace text =
  (fst (serve t ?group ?mode ?use_index ?budget ?trace [ text ])).(0)

let run_many_robust t ?group ?mode ?use_index ?budget texts =
  serve t ?group ?mode ?use_index ?budget texts

(* --- the secure update path ------------------------------------------------ *)

type update_report = {
  up_target : int;
  up_nodes_before : int;
  up_nodes_after : int;
  up_plans_dropped : int;
  up_index_maintained : bool;
}

(* Resolve an update target to one node id of the snapshot's document.
   [By_id] is taken as given (member legality is still checked against
   it); [By_path] is a Regular XPath evaluated through the caller's view
   that must select exactly one node — a member's path runs rewritten,
   so it can only ever name nodes the view exposes.  Evaluation runs on
   the caller's snapshot: the ids it yields are coordinates of exactly
   the tree the staged pipeline edits. *)
let resolve_target t ~route snap = function
  | Update.By_id n -> Ok n
  | Update.By_path text ->
    (match (fst (run_slots t ~route ~snap ~mode:Dom [| text |])).(0) with
    | Error e -> Error e
    | Ok { answers = [ n ]; _ } -> Ok n
    | Ok { answers; _ } ->
      Error
        (Error.Query_error
           (Printf.sprintf "update target must select exactly one node, got %d"
              (List.length answers))))

(* One secure update, atomically: resolve, validate, policy-precheck,
   apply functionally, DTD-validate the candidate, policy-postcheck, and
   only then publish — the new tree, the incrementally spliced TAX index
   and the tag-scoped plan-cache invalidation land under one lock hold.
   Everything before the publish works on immutable values derived from
   one snapshot, so {e any} failure on the way (including the
   ["update.apply"]/["update.invalidate"] failpoints) is a clean full
   reject: the engine still serves exactly the state it served before.
   If the document moved underneath (a concurrent update or
   [replace_document] won the race), the whole staged pipeline is redone
   from a fresh snapshot rather than patched up. *)
let update_robust t ?group op =
  match principal t group with
  | Error e -> Error e
  | Ok route ->
    let member_view = Option.map snd route in
    let ( let* ) = Result.bind in
    let rec attempt retries =
      let snap = snapshot t in
      let old_tree = snap.snap_tree in
      let staged =
        let* target = resolve_target t ~route snap (Update.target_of op) in
        let r = Update.resolve op target in
        let* () = Update.validate old_tree r in
        let* () =
          match member_view with
          | None -> Ok ()
          | Some v -> Update.precheck ~view:v old_tree r
        in
        let* new_tree, fp = Update.apply old_tree r in
        let* () =
          match t.dtd with
          | None -> Ok ()
          | Some d ->
            (match validate_against d new_tree with
            | Ok () -> Ok ()
            | Error msg -> Error (Error.Parse_error { loc = None; msg }))
        in
        let* () =
          match member_view with
          | None -> Ok ()
          | Some v -> Update.postcheck ~view:v ~old_tree ~new_tree fp
        in
        (* Incremental index maintenance: splice the served TAX around
           the edited range instead of rebuilding O(document).  Computed
           outside the lock — it only reads immutable values. *)
        let* new_tax =
          Error.guard (fun () ->
              Failpoint.trigger "update.apply";
              match snap.snap_tax with
              | None -> None
              | Some idx ->
                Some
                  (Tax.splice idx new_tree ~lo:fp.Update.fp_lo
                     ~old_hi:fp.Update.fp_old_hi ~par:fp.Update.fp_parent))
        in
        Ok (target, new_tree, fp, new_tax)
      in
      match staged with
      | Error e -> Error e
      | Ok (target, new_tree, fp, new_tax) ->
        let publish =
          Error.guard (fun () ->
              Failpoint.trigger "update.invalidate";
              locked t (fun () ->
                  if t.tree != old_tree then None
                  else begin
                    t.tree <- new_tree;
                    t.source <- From_tree;
                    t.tax <- new_tax;
                    Some
                      (Plan_cache.invalidate_tags t.plan_cache
                         fp.Update.fp_tags)
                  end))
        in
        (match publish with
        | Error e -> Error e
        | Ok None ->
          if retries <= 0 then
            Error
              (Error.Internal
                 "update: the document kept changing underneath the retries")
          else attempt (retries - 1)
        | Ok (Some dropped) ->
          Log.info (fun m ->
              m "update applied at node %d (%d -> %d nodes, %d plans dropped)"
                target (Tree.n_nodes old_tree) (Tree.n_nodes new_tree)
                dropped);
          Ok
            {
              up_target = target;
              up_nodes_before = Tree.n_nodes old_tree;
              up_nodes_after = Tree.n_nodes new_tree;
              up_plans_dropped = dropped;
              up_index_maintained = Option.is_some new_tax;
            })
    in
    attempt 16
