(* The traced replay: each op's engine pipeline re-run from the
   benchmark's own code, one span around every public call into a layer.
   It mirrors the engine's call sequence (plan-cache probe, parse,
   canonicalize, rewrite or compile, optimize, static analysis, table
   specialization, HyPE, serialization; the staged update pipeline; the
   one-shot ingest).  When the engine's pipeline changes, the replay's
   coverage of the untraced latency drops, which is the signal to update
   this file. *)

module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Dtd_parser = Smoqe_xml.Dtd_parser
module Xml_parser = Smoqe_xml.Parser
module Pull = Smoqe_xml.Pull
module Validator = Smoqe_xml.Validator
module Ast = Smoqe_rxpath.Ast
module Rx_parser = Smoqe_rxpath.Parser
module Mfa = Smoqe_automata.Mfa
module Compile = Smoqe_automata.Compile
module Optimize = Smoqe_automata.Optimize
module Analysis = Smoqe_automata.Analysis
module Tables = Smoqe_automata.Tables
module Shared = Smoqe_automata.Shared
module Policy = Smoqe_security.Policy
module Derive = Smoqe_security.Derive
module Rewriter = Smoqe_rewrite.Rewriter
module Eval_dom = Smoqe_hype.Eval_dom
module Eval_stax = Smoqe_hype.Eval_stax
module Stats = Smoqe_hype.Stats
module Tax = Smoqe_tax.Tax
module Codec = Smoqe_tax.Codec
module Canon = Smoqe_plan.Canon
module Plan_cache = Smoqe_plan.Plan_cache
module Update = Smoqe_update.Update
module Error = Smoqe_robust.Error

exception Failed of string

let ok_msg = function Ok v -> v | Error msg -> raise (Failed msg)
let ok_err = function Ok v -> v | Error e -> raise (Failed (Error.to_string e))

type plan = {
  mfa : Mfa.t;
  empty : bool;  (** the schema proves the query selects nothing *)
  shared : Shared.t option;  (** the merge, on a batch plan *)
  mutable tables : Tables.t option;  (** frozen specialization *)
}

(* What a traced evaluation observed, for the per-layer ratios. *)
type eval = { eval_ns : float; stats : Stats.t; cans : int }

(* The replica of the engine's serving state the replay runs against. *)
type t = {
  r : Span.recorder;
  dtd : Dtd.t;
  view : Derive.view;
  mutable tree : Tree.t;
  mutable tax : Tax.t option;
  mode : string;
  use_index : bool;
  cache : plan Plan_cache.t;
  mutable evals : eval list;
  mutable states : int list;  (** automaton states of each compiled plan *)
  mutable shared : (int * int) list;  (** (saved, member) states per merge *)
}

let create r ~dtd ~view ~tree ~tax ~mode ~use_index =
  { r; dtd; view; tree; tax; mode; use_index; cache = Plan_cache.create ();
    evals = []; states = []; shared = [] }

let span t name f = Span.record t.r name f

let last_ns t = match t.r.Span.spans with s :: _ -> Span.duration_ns s | [] -> 0.

let note_eval t stats cans =
  t.evals <- { eval_ns = last_ns t; stats; cans } :: t.evals

(* The plan's invalidation scope: the element names its query text
   mentions ([All_tags] when it names none). *)
let plan_scope paths =
  let names = Hashtbl.create 8 in
  let rec path = function
    | Ast.Self | Ast.Wildcard | Ast.Text -> ()
    | Ast.Tag s -> Hashtbl.replace names s ()
    | Ast.Seq (p, q) | Ast.Union (p, q) -> path p; path q
    | Ast.Star p -> path p
    | Ast.Filter (p, q) -> path p; qual q
  and qual = function
    | Ast.True -> ()
    | Ast.Exists p | Ast.Value_eq (p, _) -> path p
    | Ast.Not q -> qual q
    | Ast.And (a, b) | Ast.Or (a, b) -> qual a; qual b
  in
  List.iter path paths;
  match Hashtbl.fold (fun n () acc -> n :: acc) names [] with
  | [] -> Plan_cache.All_tags
  | names -> Plan_cache.Tags names

let key t ~member query =
  { Plan_cache.group = (if member then Some Inputs.group else None);
    policy_key = None; query; mode = t.mode; use_index = t.use_index }

let compile t ~member path =
  let mfa =
    if member then span t "rewrite.rewrite" (fun () -> Rewriter.rewrite t.view path)
    else span t "automata.compile" (fun () -> Compile.compile path)
  in
  let mfa = span t "automata.optimize" (fun () -> Optimize.optimize mfa) in
  t.states <- Mfa.n_states mfa :: t.states;
  mfa

let plan_for t ~member text =
  match Plan_cache.find t.cache (key t ~member text) with
  | Some plan -> plan
  | None ->
    let path =
      span t "rxpath.parse" (fun () -> ok_msg (Rx_parser.path_of_string text))
    in
    let canonical = span t "plan.canon" (fun () -> Canon.to_key path) in
    (match
       if canonical = text then None
       else Plan_cache.find t.cache (key t ~member canonical)
     with
    | Some plan -> plan
    | None ->
      Plan_cache.record_miss t.cache;
      let mfa = compile t ~member path in
      let empty =
        span t "automata.analysis" (fun () ->
            Analysis.satisfiable mfa t.dtd = Analysis.Empty)
      in
      let plan = { mfa; empty; shared = None; tables = None } in
      Plan_cache.add t.cache ~scope:(plan_scope [ path ])
        (key t ~member canonical) plan;
      plan)

let tables_for t plan =
  match plan.tables with
  | Some tb when Tables.built_for tb t.tree -> tb
  | Some _ | None ->
    let tb =
      span t "automata.tables_spec" (fun () ->
          Tables.of_tree plan.mfa.Mfa.nfa t.tree)
    in
    plan.tables <- Some tb;
    tb

let serialize t ids =
  span t "xml.serialize" (fun () -> List.map (Oracle.answer_xml t.tree) ids)

(* One DOM read: answers and their serialized fragments. *)
let read t ~member text =
  let plan = plan_for t ~member text in
  if plan.empty then ([], [])
  else begin
    let tables = tables_for t plan in
    let tax = if t.use_index then t.tax else None in
    let r =
      span t "hype.eval_dom" (fun () ->
          Eval_dom.run ?tax ~tables ~use_tables:true plan.mfa t.tree)
    in
    note_eval t r.Eval_dom.stats r.Eval_dom.cans_size;
    (r.Eval_dom.answers, serialize t r.Eval_dom.answers)
  end

(* One member batch in one shared pass; per-query (answers, fragments). *)
let batch t texts =
  let parsed =
    List.map
      (fun text ->
        let path =
          span t "rxpath.parse" (fun () -> ok_msg (Rx_parser.path_of_string text))
        in
        (span t "plan.canon" (fun () -> Canon.to_key path), path))
      texts
  in
  let uniq = List.sort_uniq compare (List.map fst parsed) |> Array.of_list in
  let path_of k = List.assoc k parsed in
  let bkey = key t ~member:true ("batch\x00" ^ String.concat "\x00" (Array.to_list uniq)) in
  let plan =
    match Plan_cache.find t.cache bkey with
    | Some ({ shared = Some _; _ } as plan) -> plan
    | Some _ | None ->
      Plan_cache.record_miss t.cache;
      let mfas = Array.map (fun k -> compile t ~member:true (path_of k)) uniq in
      let sh = span t "automata.shared_merge" (fun () -> Shared.merge mfas) in
      t.shared <- (Shared.saved_states sh, sh.Shared.member_states) :: t.shared;
      let plan = { mfa = sh.Shared.mfa; empty = false; shared = Some sh; tables = None } in
      Plan_cache.add t.cache
        ~scope:(plan_scope (List.map path_of (Array.to_list uniq)))
        bkey plan;
      plan
  in
  let sh = Option.get plan.shared in
  let tables = tables_for t plan in
  let tax = if t.use_index then t.tax else None in
  let r =
    span t "hype.batch_eval" (fun () ->
        Eval_dom.run_many ?tax ~tables ~use_tables:true sh t.tree)
  in
  note_eval t r.Eval_dom.m_stats r.Eval_dom.m_cans_size;
  let slot k =
    let rec find i = if uniq.(i) = k then i else find (i + 1) in
    find 0
  in
  span t "xml.serialize" (fun () ->
      let memo = Hashtbl.create 64 in
      let xml_of n =
        match Hashtbl.find_opt memo n with
        | Some s -> s
        | None ->
          let s = Oracle.answer_xml t.tree n in
          Hashtbl.add memo n s;
          s
      in
      List.map
        (fun (k, _) ->
          let ids = r.Eval_dom.by_query.(slot k) in
          (ids, List.map xml_of ids))
        parsed)

(* One secure update through the staged pipeline; returns the plans the
   publish invalidated. *)
let update t ~member resolved =
  let old_tree = t.tree in
  span t "update.check" (fun () -> ok_err (Update.validate old_tree resolved));
  if member then
    span t "update.precheck" (fun () ->
        ok_err (Update.precheck ~view:t.view old_tree resolved));
  let new_tree, fp =
    span t "update.apply" (fun () -> ok_err (Update.apply old_tree resolved))
  in
  span t "update.dtd" (fun () ->
      match Validator.validate t.dtd new_tree with
      | Ok () -> ()
      | Error _ -> raise (Failed "candidate violates the DTD"));
  if member then
    span t "update.postcheck" (fun () ->
        ok_err (Update.postcheck ~view:t.view ~old_tree ~new_tree fp));
  let new_tax =
    Option.map
      (fun idx ->
        span t "tax.splice" (fun () ->
            Tax.splice idx new_tree ~lo:fp.Update.fp_lo
              ~old_hi:fp.Update.fp_old_hi ~par:fp.Update.fp_parent))
      t.tax
  in
  t.tree <- new_tree;
  t.tax <- new_tax;
  span t "plan.invalidate" (fun () ->
      Plan_cache.invalidate_tags t.cache fp.Update.fp_tags)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The store open a serving process pays once: document, DTD, policy,
   view derivation and index load (file names per the store layout). *)
let store_open r dir ~group =
  let file name = Filename.concat dir name in
  let text = Span.record r "store.read" (fun () -> read_file (file "document.xml")) in
  let tree =
    Span.record r "xml.parse" (fun () -> ok_msg (Xml_parser.tree_of_string_res text))
  in
  let dtd =
    Span.record r "xml.dtd_parse" (fun () ->
        Dtd_parser.of_string (read_file (file "document.dtd")))
  in
  let policy =
    Span.record r "security.policy_parse" (fun () ->
        ok_msg
          (Policy.of_string dtd
             (read_file (file (Filename.concat "policies" (group ^ ".policy"))))))
  in
  let view = Span.record r "security.derive" (fun () -> Derive.derive policy) in
  let tax =
    Span.record r "tax.load" (fun () -> ok_msg (Codec.load (file "document.tax")))
  in
  (tree, dtd, view, tax)

(* One cold one-shot request, as [smoqe query --dtd --policy --group]
   runs it: ingest, validate, derive, index (DOM), one member query. *)
let oneshot r ~stax ~doc_path text =
  let dtd = Span.record r "xml.dtd_parse" (fun () -> Dtd_parser.of_string Inputs.dtd_text) in
  let tree =
    Span.record r "xml.parse" (fun () -> ok_msg (Xml_parser.tree_of_file_res doc_path))
  in
  Span.record r "xml.validate" (fun () ->
      match Validator.validate dtd tree with
      | Ok () -> ()
      | Error _ -> raise (Failed "document violates the DTD"));
  let policy =
    Span.record r "security.policy_parse" (fun () ->
        ok_msg (Policy.of_string dtd Inputs.policy_text))
  in
  let view = Span.record r "security.derive" (fun () -> Derive.derive policy) in
  let tax = if stax then None else Some (Span.record r "tax.build" (fun () -> Tax.build tree)) in
  let t =
    create r ~dtd ~view ~tree ~tax ~mode:(if stax then "stax" else "dom")
      ~use_index:(not stax)
  in
  if not stax then (t, read t ~member:true text)
  else begin
    let plan = plan_for t ~member:true text in
    if plan.empty then (t, ([], []))
    else begin
      let res =
        span t "hype.eval_stax" (fun () ->
            In_channel.with_open_bin doc_path (fun ic ->
                Eval_stax.run ~capture:true ~use_tables:true plan.mfa
                  (Pull.of_channel ic)))
      in
      note_eval t res.Eval_stax.stats res.Eval_stax.cans_size;
      (t, (res.Eval_stax.answers, List.map snd res.Eval_stax.captured))
    end
  end
