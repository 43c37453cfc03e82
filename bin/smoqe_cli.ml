(* The SMOQE command-line interface: the terminal stand-in for the demo's
   iSMOQE front-end.  Subcommands: schema, view, rewrite, query, update,
   index, gen and store (init, add-policy, info, query). *)

open Cmdliner

module Engine = Smoqe.Engine
module Ismoqe = Smoqe.Ismoqe
module Dtd_parser = Smoqe_xml.Dtd_parser
module Dtd = Smoqe_xml.Dtd
module Serializer = Smoqe_xml.Serializer
module Policy = Smoqe_security.Policy
module Derive = Smoqe_security.Derive
module Trace = Smoqe_hype.Trace
module Budget = Smoqe_robust.Budget
module Robust_error = Smoqe_robust.Error
module Stats = Smoqe_hype.Stats
module Update = Smoqe_update.Update

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("smoqe: " ^ msg);
    exit 1

(* Typed errors keep their exit codes: malformed input (2) and budget
   exhaustion (3) are distinguishable from plain failure (1) by callers
   and schedulers — see README "Exit codes". *)
let or_die_robust = function
  | Ok v -> v
  | Error e ->
    prerr_endline ("smoqe: " ^ Robust_error.to_string e);
    exit (Robust_error.exit_code e)

let die_malformed msg =
  let e = Robust_error.Parse_error { loc = None; msg } in
  prerr_endline ("smoqe: " ^ Robust_error.to_string e);
  exit (Robust_error.exit_code e)

let load_dtd path =
  match Dtd_parser.of_string (read_file path) with
  | dtd -> dtd
  | exception Dtd_parser.Error (off, msg) ->
    die_malformed (Printf.sprintf "%s: offset %d: %s" path off msg)
  | exception Invalid_argument msg -> die_malformed (path ^ ": " ^ msg)

let load_policy dtd path =
  or_die (Policy.of_string dtd (read_file path))

(* --- common arguments --------------------------------------------------- *)

let doc_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"XML document.")

let dtd_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "s"; "dtd" ] ~docv:"FILE" ~doc:"Document DTD.")

let dtd_opt_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "s"; "dtd" ] ~docv:"FILE" ~doc:"Document DTD (optional).")

let policy_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "p"; "policy" ] ~docv:"FILE"
        ~doc:"Access-control policy (ann(parent, child) = Y|N|[q] lines).")

let policy_opt_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "p"; "policy" ] ~docv:"FILE" ~doc:"Access-control policy.")

let query_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"QUERY" ~doc:"Regular XPath query.")

(* --- many groups ---------------------------------------------------------

   A groups file maps group names to policy files, one per line:

     alice = policies/alice.pol
     bob   = policies/bob.pol

   Blank lines and [#]-comments are skipped.  Policy paths are resolved
   relative to the current directory.  Every line registers a group, so
   [-g NAME] runs as it; groups whose policies normalize to the same
   canonical key share one derived view and one compiled plan per query
   (see Engine "Security views"). *)
let groups_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "groups" ] ~docv:"FILE"
        ~doc:
          "Group map: one NAME = POLICY-FILE line per group (blank lines \
           and #-comments skipped); run as one of them with -g NAME.  \
           Requires --dtd.")

let load_groups dtd path =
  read_file path
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let t = String.trim line in
         if t = "" || t.[0] = '#' then None
         else
           match String.index_opt t '=' with
           | None ->
             die_malformed
               (Printf.sprintf "%s: expected NAME = POLICY-FILE, got %S" path
                  t)
           | Some i ->
             let name = String.trim (String.sub t 0 i) in
             let pfile =
               String.trim (String.sub t (i + 1) (String.length t - i - 1))
             in
             if name = "" || pfile = "" then
               die_malformed
                 (Printf.sprintf "%s: expected NAME = POLICY-FILE, got %S"
                    path t);
             Some (name, load_policy dtd pfile))

(* The principals of a run: the -p policy (registered for -g, default
   "user") and every line of the --groups map.  Returns the map and the
   group the run acts as — [None] (administrative) unless -p or -g named
   one. *)
let setup_groups engine ~dtd ~policy_path ~groups_file ~group =
  let dtd_for flag =
    match dtd with
    | Some d -> d
    | None ->
      prerr_endline ("smoqe: " ^ flag ^ " requires --dtd");
      exit 1
  in
  let group =
    match policy_path with
    | None -> group
    | Some p ->
      let g = Option.value group ~default:"user" in
      or_die
        (Engine.register_policy engine ~group:g
           (load_policy (dtd_for "--policy") p));
      Some g
  in
  let group_defs =
    match groups_file with
    | None -> []
    | Some path -> load_groups (dtd_for "--groups") path
  in
  List.iter
    (fun (name, policy) ->
      or_die (Engine.register_policy engine ~group:name policy))
    group_defs;
  (group_defs, group)

let print_group_counters counters =
  print_endline "-- groups --";
  List.iter (fun (k, v) -> Printf.printf "%s: %d\n" k v) counters

(* Resource budgets (wired into Smoqe_robust.Budget).  [budget_term]
   evaluates to [None] when no limit is given, or a thunk building a fresh
   budget — the wall-clock deadline must be armed when the query starts,
   not at argument parsing. *)
let budget_term =
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Abort the query after this many milliseconds of wall clock.")
  in
  let max_nodes =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Abort after scanning this many nodes/events.")
  in
  let max_cans =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-cans" ] ~docv:"N"
          ~doc:"Abort once the candidate-answer set exceeds this size.")
  in
  let max_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:
            "Abort once element nesting exceeds this depth (the only depth \
             limit the parser has — see DESIGN.md §12).")
  in
  let mk timeout_ms max_nodes max_cans max_depth =
    if
      timeout_ms = None && max_nodes = None && max_cans = None
      && max_depth = None
    then None
    else
      Some
        (fun () ->
          Budget.create ?timeout_ms ?max_nodes ?max_cans ?max_depth ())
  in
  Term.(const mk $ timeout_ms $ max_nodes $ max_cans $ max_depth)

(* --- schema ------------------------------------------------------------- *)

let schema_cmd =
  let run dtd_path =
    print_string (Ismoqe.schema_graph (load_dtd dtd_path))
  in
  Cmd.v
    (Cmd.info "schema" ~doc:"Display a DTD as a schema graph")
    Term.(const run $ Arg.(required & pos 0 (some file) None
                           & info [] ~docv:"DTD" ~doc:"DTD file."))

(* --- view --------------------------------------------------------------- *)

let view_cmd =
  let run dtd_path policy_path =
    let dtd = load_dtd dtd_path in
    let policy = load_policy dtd policy_path in
    match Derive.derive policy with
    | exception Derive.Unsupported msg ->
      prerr_endline ("smoqe: " ^ msg);
      exit 1
    | view -> print_string (Ismoqe.view_specification view)
  in
  Cmd.v
    (Cmd.info "view"
       ~doc:
         "Derive a security view from a policy: sigma expressions and the \
          view DTD (paper Fig. 3)")
    Term.(const run $ dtd_arg $ policy_arg)

(* --- rewrite ------------------------------------------------------------ *)

let rewrite_cmd =
  let run dtd_path policy_path query dot expr =
    let dtd = load_dtd dtd_path in
    let policy = load_policy dtd policy_path in
    let view =
      match Derive.derive policy with
      | v -> v
      | exception Derive.Unsupported msg ->
        prerr_endline ("smoqe: " ^ msg);
        exit 1
    in
    let path =
      or_die (Smoqe_rxpath.Parser.path_of_string query)
    in
    (* The plan the engine runs: the rewritten MFA, optimized. *)
    let rewritten = Smoqe_rewrite.Rewriter.rewrite view path in
    let mfa = Smoqe_automata.Optimize.optimize rewritten in
    if dot then print_string (Ismoqe.mfa_dot mfa)
    else begin
      Printf.printf "plan: %d states rewritten, %d optimized\n"
        (Smoqe_automata.Mfa.n_states rewritten)
        (Smoqe_automata.Mfa.n_states mfa);
      print_string (Ismoqe.mfa_ascii mfa)
    end;
    if expr then begin
      match Smoqe_rewrite.Expr_rewriter.rewrite_sized view path with
      | e, size ->
        Printf.printf "\nexpression rewriting (expanded size %.0f):\n%s\n"
          size
          (Smoqe_rxpath.Pretty.path_to_string e)
      | exception Smoqe_rewrite.Expr_rewriter.Too_large n ->
        Printf.printf
          "\nexpression rewriting exceeded the size budget (reached %.2g) — \
           this blow-up is why SMOQE uses MFAs\n"
          n
    end
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:
         "Rewrite a view query to a document-level MFA (paper Fig. 4) and \
          print the optimized plan the engine runs")
    Term.(
      const run $ dtd_arg $ policy_arg $ query_arg
      $ Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT.")
      $ Arg.(value & flag & info [ "expr" ]
             ~doc:"Also attempt the (possibly exponential) expression-level \
                   rewriting."))

(* --- query -------------------------------------------------------------- *)

(* A queries file: one Regular XPath query per line; blank lines and
   [#]-comment lines are skipped.  Line order is answer order. *)
let load_queries path =
  read_file path
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let t = String.trim line in
         if t = "" || t.[0] = '#' then None else Some t)

let query_cmd =
  let run doc_path dtd_path policy_path group mode use_index trace output
      stats budget plan_cache repeat queries_file groups_file query =
    let dtd = Option.map load_dtd dtd_path in
    (* the parse is budgeted too: a depth/node/deadline limit must bound
       document ingest, not just evaluation (DESIGN.md §12) *)
    let parse_budget = Option.map (fun mk -> mk ()) budget in
    let engine =
      or_die_robust (Engine.of_file_robust ?budget:parse_budget ?dtd doc_path)
    in
    let group_defs, group =
      setup_groups engine ~dtd ~policy_path ~groups_file ~group
    in
    if use_index then Engine.build_index engine;
    let mode = if mode = "stax" then Engine.Stax else Engine.Dom in
    let tracer = if trace then Some (Trace.create ()) else None in
    Engine.set_plan_cache_capacity engine plan_cache;
    (* [--repeat] re-runs the query in-process — the serving pattern the
       plan cache exists for; each run gets a fresh budget so the deadline
       restarts.  Answers are printed once, from the last run. *)
    let repeat = max 1 repeat in
    let print_answers outcome =
      match output with
      | "ids" ->
        List.iter (fun n -> Printf.printf "%d\n" n) outcome.Engine.answers
      | "tree" ->
        print_string
          (Ismoqe.answers_tree (Engine.document engine) outcome.Engine.answers)
      | _ -> List.iter print_endline outcome.Engine.answer_xml
    in
    let print_plan_cache () =
      print_endline "-- plan cache --";
      List.iter
        (fun (k, v) -> Printf.printf "%s: %d\n" k v)
        (Engine.plan_cache_counters engine)
    in
    (* --queries-file: the whole batch is answered in ONE shared-automaton
       document pass (Engine.run_many_robust).  A failed member (parse
       error, budget…) is reported in its slot without sinking the rest;
       the exit code is the first failure's. *)
    (match queries_file with
    | Some qpath ->
      if query <> None then begin
        prerr_endline
          "smoqe: a positional QUERY and --queries-file are mutually \
           exclusive";
        exit 1
      end;
      if trace then begin
        prerr_endline
          "smoqe: --trace is single-query-only and cannot be combined with \
           --queries-file";
        exit 1
      end;
      if repeat > 1 then begin
        prerr_endline "smoqe: --repeat applies to a single query, not a batch";
        exit 1
      end;
      let texts = load_queries qpath in
      if texts = [] then begin
        prerr_endline ("smoqe: " ^ qpath ^ ": no queries (all blank/comments)");
        exit 1
      end;
      let results, agg =
        Engine.run_many_robust engine ?group ~mode ~use_index
          ?budget:(Option.map (fun mk -> mk ()) budget)
          texts
      in
      let first_failure = ref None in
      Array.iteri
        (fun i r ->
          Printf.printf "== query %d: %s ==\n" (i + 1) (List.nth texts i);
          match r with
          | Error e ->
            if !first_failure = None then first_failure := Some e;
            Printf.printf "error: %s\n" (Robust_error.to_string e)
          | Ok o ->
            print_answers o;
            if stats then begin
              print_endline "-- statistics --";
              print_endline (Ismoqe.stats_table o.Engine.stats)
            end)
        results;
      if stats then begin
        Printf.printf "== batch aggregate (%d queries) ==\n"
          (List.length texts);
        List.iter
          (fun (k, v) -> Printf.printf "%s: %d\n" k v)
          (Stats.to_assoc agg);
        print_plan_cache ();
        if group_defs <> [] then
          print_group_counters (Engine.group_counters engine)
      end;
      (match !first_failure with
      | Some e -> exit (Robust_error.exit_code e)
      | None -> ());
      exit 0
    | None -> ());
    let query =
      match query with
      | Some q -> q
      | None ->
        prerr_endline "smoqe: a QUERY argument or --queries-file is required";
        exit 1
    in
    let run_once () =
      let budget = Option.map (fun mk -> mk ()) budget in
      or_die_robust
        (Engine.query_robust engine ?group ~mode ~use_index ?budget
           ?trace:tracer query)
    in
    let outcome = ref (run_once ()) in
    for _ = 2 to repeat do
      outcome := run_once ()
    done;
    let outcome = !outcome in
    print_answers outcome;
    (match tracer with
    | Some tr ->
      print_string
        (Ismoqe.evaluation_trace ~color:(Unix_compat.is_tty ()) tr
           (Engine.document engine))
    | None -> ());
    if stats then begin
      print_endline "-- statistics --";
      print_endline (Ismoqe.stats_table outcome.Engine.stats);
      print_plan_cache ();
      if group_defs <> [] then
        print_group_counters (Engine.group_counters engine)
    end
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Answer a Regular XPath query, directly or through a security view")
    Term.(
      const run $ doc_arg $ dtd_opt_arg $ policy_opt_arg
      $ Arg.(value & opt (some string) None
             & info [ "g"; "group" ] ~docv:"NAME"
                 ~doc:"Run as this user group: the -p policy's group \
                       (default user) or a --groups name.")
      $ Arg.(value & opt (enum [ ("dom", "dom"); ("stax", "stax") ]) "dom"
             & info [ "mode" ] ~doc:"Evaluation mode: dom or stax.")
      $ Arg.(value & flag & info [ "index" ] ~doc:"Build and use a TAX index.")
      $ Arg.(value & flag & info [ "trace" ]
             ~doc:"Show the per-node evaluation trace (iSMOQE's colors).")
      $ Arg.(value
             & opt (enum [ ("text", "text"); ("tree", "tree"); ("ids", "ids") ])
                 "text"
             & info [ "o"; "output" ] ~doc:"Output mode.")
      $ Arg.(value & flag & info [ "stats" ]
             ~doc:"Print evaluation counters and plan-cache counters.")
      $ budget_term
      $ Arg.(value & opt int 128
             & info [ "plan-cache" ] ~docv:"N"
                 ~doc:"Compiled-plan cache capacity (0 disables).")
      $ Arg.(value & opt int 1
             & info [ "repeat" ] ~docv:"N"
                 ~doc:"Run the query N times in-process (answers printed \
                       once); repeats after the first are served from the \
                       plan cache.")
      $ Arg.(value & opt (some file) None
             & info [ "queries-file" ] ~docv:"FILE"
                 ~doc:"Serve a whole batch: one Regular XPath query per line \
                       (blank lines and #-comments skipped), all answered in \
                       a single shared-automaton document pass.")
      $ groups_arg
      $ Arg.(value & pos 0 (some string) None
             & info [] ~docv:"QUERY"
                 ~doc:"Regular XPath query (omit with --queries-file)."))

(* --- update ------------------------------------------------------------- *)

let update_cmd =
  let run doc_path dtd_path policy_path group groups_file op_name
      target_query target_id xml before out =
    let dtd = Option.map load_dtd dtd_path in
    let engine = or_die_robust (Engine.of_file_robust ?dtd doc_path) in
    let _, group =
      setup_groups engine ~dtd ~policy_path ~groups_file ~group
    in
    let target =
      match target_id, target_query with
      | Some n, None -> Update.By_id n
      | None, Some q -> Update.By_path q
      | Some _, Some _ ->
        die_malformed "update: give either --target or --target-id, not both"
      | None, None ->
        die_malformed "update: a target is required (--target or --target-id)"
    in
    (* The new subtree, for insert/replace: an XML fragment parsed with
       the document parser — a malformed fragment is malformed input
       (exit 2), exactly like a malformed document. *)
    let fragment () =
      match xml with
      | None ->
        die_malformed
          (Printf.sprintf "update: --xml FRAGMENT is required for %s" op_name)
      | Some text ->
        (match Smoqe_xml.Parser.tree_of_string_res text with
        | Error msg -> die_malformed ("update fragment: " ^ msg)
        | Ok tree -> Smoqe_xml.Tree.(to_source tree root))
    in
    let op =
      match op_name with
      | "delete" -> Update.Delete target
      | "replace" -> Update.Replace (target, fragment ())
      | _ -> Update.Insert { parent = target; before; source = fragment () }
    in
    let report = or_die_robust (Engine.update_robust engine ?group op) in
    let doc = Serializer.to_string (Engine.document engine) in
    (match out with
    | None -> print_string doc
    | Some path -> Smoqe_robust.Atomic_file.write path doc);
    Printf.eprintf "smoqe: update applied at node %d (%d -> %d nodes)\n"
      report.Engine.up_target report.Engine.up_nodes_before
      report.Engine.up_nodes_after
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Apply a subtree update (insert, delete or replace), checked \
          against a group's security view; prints the updated document. A \
          view-denied update exits 4, malformed input exits 2.")
    Term.(
      const run $ doc_arg $ dtd_opt_arg $ policy_opt_arg
      $ Arg.(value & opt (some string) None
             & info [ "g"; "group" ] ~docv:"NAME"
                 ~doc:"Update as a member of this group (checked against \
                       its view): the -p policy's group (default user) or \
                       a --groups name; omit for an administrative \
                       update.")
      $ groups_arg
      $ Arg.(value
             & opt (enum [ ("insert", "insert"); ("delete", "delete");
                           ("replace", "replace") ]) "replace"
             & info [ "op" ] ~doc:"The edit: insert, delete or replace.")
      $ Arg.(value & opt (some string) None
             & info [ "target" ] ~docv:"QUERY"
                 ~doc:"Regular XPath selecting exactly one node: the \
                       subtree to delete/replace, or the parent receiving \
                       an insert.  Members' targets are evaluated through \
                       their view.")
      $ Arg.(value & opt (some int) None
             & info [ "target-id" ] ~docv:"N"
                 ~doc:"Target by pre-order node id instead of a query.")
      $ Arg.(value & opt (some string) None
             & info [ "xml" ] ~docv:"FRAGMENT"
                 ~doc:"The new subtree, as an XML fragment (insert/replace).")
      $ Arg.(value & opt (some int) None
             & info [ "before" ] ~docv:"ID"
                 ~doc:"Insert before this child of the target (default: \
                       append as last child).")
      $ Arg.(value & opt (some string) None
             & info [ "out" ] ~docv:"FILE"
                 ~doc:"Write the updated document here instead of stdout \
                       (atomically: a failed write leaves the old file)."))

(* --- index -------------------------------------------------------------- *)

let index_cmd =
  let run doc_path save show =
    let engine = or_die_robust (Engine.of_file_robust doc_path) in
    Engine.build_index engine;
    (match save with
    | Some path ->
      or_die (Engine.save_index engine path);
      Printf.printf "index written to %s\n" path
    | None -> ());
    if show then
      print_string
        (Ismoqe.tax_view
           (Option.get (Engine.index engine))
           (Engine.document engine))
  in
  Cmd.v
    (Cmd.info "index" ~doc:"Build, store and display the TAX index")
    Term.(
      const run $ doc_arg
      $ Arg.(value & opt (some string) None
             & info [ "save" ] ~docv:"FILE" ~doc:"Write the compressed index.")
      $ Arg.(value & flag & info [ "show" ] ~doc:"Display the index (Fig. 6)."))

(* --- gen ---------------------------------------------------------------- *)

let gen_cmd =
  let run kind seed size depth emit_dtd emit_policy =
    let tree, dtd, policy_text =
      match kind with
      | "hospital" ->
        ( Smoqe_workload.Hospital.generate ~seed ~n_patients:size
            ~recursion_depth:depth (),
          Smoqe_workload.Hospital.dtd,
          Smoqe_workload.Hospital.policy_text )
      | "bib" ->
        ( Smoqe_workload.Bib.generate ~seed ~n_books:size ~section_depth:depth (),
          Smoqe_workload.Bib.dtd,
          Smoqe_workload.Bib.policy_text )
      | _ ->
        let dtd =
          Smoqe_workload.Random_dtd.generate ~seed ~n_types:(max 2 depth)
            ~recursion:true ()
        in
        ( Smoqe_workload.Docgen.generate_sized ~seed ~target_nodes:size dtd,
          dtd,
          "" )
    in
    if emit_dtd then print_string (Dtd.to_string dtd)
    else if emit_policy then print_string policy_text
    else print_string (Serializer.to_string tree)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate benchmark documents, DTDs and policies")
    Term.(
      const run
      $ Arg.(value
             & opt (enum [ ("hospital", "hospital"); ("bib", "bib");
                           ("random", "random") ]) "hospital"
             & info [ "kind" ] ~doc:"Workload: hospital, bib or random.")
      $ Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.")
      $ Arg.(value & opt int 20 & info [ "size" ]
             ~doc:"Patients / books / target nodes.")
      $ Arg.(value & opt int 3 & info [ "depth" ]
             ~doc:"Recursion depth (or type count for random).")
      $ Arg.(value & flag & info [ "emit-dtd" ] ~doc:"Print the DTD instead.")
      $ Arg.(value & flag & info [ "emit-policy" ]
             ~doc:"Print the example policy instead."))

(* --- store -------------------------------------------------------------- *)

module Store = Smoqe_store.Store

let store_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Store directory.")

let store_init_cmd =
  let run dir doc_path dtd_path =
    let dtd = Option.map load_dtd dtd_path in
    let tree =
      match Smoqe_xml.Parser.tree_of_file doc_path with
      | t -> t
      | exception Smoqe_xml.Pull.Error (line, col, msg) ->
        or_die_robust
          (Error
             (Robust_error.Parse_error
                {
                  loc =
                    Some (Robust_error.location ~file:doc_path ~line ~col ());
                  msg;
                }))
    in
    let store = or_die (Store.create ~dir ?dtd tree) in
    Printf.printf "store initialized in %s
" (Store.dir store)
  in
  Cmd.v
    (Cmd.info "init" ~doc:"Initialize a store from a document")
    Term.(const run $ store_dir_arg $ doc_arg $ dtd_opt_arg)

let store_policy_cmd =
  let run dir group policy_path =
    let store = or_die (Store.open_dir dir) in
    let dtd =
      match Engine.dtd (Store.engine store) with
      | Some d -> d
      | None ->
        prerr_endline "smoqe: store has no DTD; policies need a schema";
        exit 1
    in
    or_die (Store.add_policy store ~group (load_policy dtd policy_path));
    Printf.printf "policy for group %s stored
" group
  in
  Cmd.v
    (Cmd.info "add-policy" ~doc:"Persist an access-control policy for a group")
    Term.(
      const run $ store_dir_arg
      $ Arg.(required & pos 1 (some string) None
             & info [] ~docv:"GROUP" ~doc:"User group.")
      $ policy_arg)

let store_info_cmd =
  let run dir =
    let store = or_die (Store.open_dir dir) in
    let engine = Store.engine store in
    Printf.printf "document: %d nodes
"
      (Smoqe_xml.Tree.n_nodes (Engine.document engine));
    Printf.printf "dtd: %s
"
      (match Engine.dtd engine with
      | Some d -> Dtd.root d ^ " (" ^ string_of_int
                    (List.length (Dtd.element_names d)) ^ " element types)"
      | None -> "none");
    Printf.printf "index: %s
"
      (if Engine.index engine <> None then "loaded" else "none");
    Printf.printf "groups: %s
"
      (match Store.groups store with
      | [] -> "(none)"
      | gs -> String.concat ", " gs)
  in
  Cmd.v (Cmd.info "info" ~doc:"Describe a store") Term.(const run $ store_dir_arg)

let store_query_cmd =
  let run dir group mode output query =
    let store = or_die (Store.open_dir dir) in
    let role =
      match group with
      | None -> Smoqe.Session.Admin
      | Some g -> Smoqe.Session.Member g
    in
    let session = or_die (Store.login store role) in
    let mode = if mode = "stax" then Engine.Stax else Engine.Dom in
    let outcome =
      or_die_robust (Smoqe.Session.run_robust session ~mode query)
    in
    match output with
    | "ids" -> List.iter (fun n -> Printf.printf "%d
" n) outcome.Engine.answers
    | _ -> List.iter print_endline outcome.Engine.answer_xml
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Query a store, as admin or through a group's view")
    Term.(
      const run $ store_dir_arg
      $ Arg.(value & opt (some string) None
             & info [ "g"; "group" ] ~docv:"NAME"
                 ~doc:"Query through this group's view (omit for admin).")
      $ Arg.(value & opt (enum [ ("dom", "dom"); ("stax", "stax") ]) "dom"
             & info [ "mode" ] ~doc:"Evaluation mode.")
      $ Arg.(value & opt (enum [ ("text", "text"); ("ids", "ids") ]) "text"
             & info [ "o"; "output" ] ~doc:"Output mode.")
      $ Arg.(required & pos 1 (some string) None
             & info [] ~docv:"QUERY" ~doc:"Regular XPath query."))

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Persistent stores: document, index and policies on disk")
    [ store_init_cmd; store_policy_cmd; store_info_cmd; store_query_cmd ]

let main_cmd =
  let doc = "SMOQE: secure access to XML through virtual Regular XPath views" in
  Cmd.group
    (Cmd.info "smoqe" ~version:"1.0.0" ~doc)
    [ schema_cmd; view_cmd; rewrite_cmd; query_cmd; update_cmd; index_cmd;
      gen_cmd; store_cmd ]

let () = exit (Cmd.eval main_cmd)
