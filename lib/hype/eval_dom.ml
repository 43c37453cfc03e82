module Tree = Smoqe_xml.Tree
module Tax = Smoqe_tax.Tax
module Reachability = Smoqe_automata.Reachability
module Mfa = Smoqe_automata.Mfa
module Failpoint = Smoqe_robust.Failpoint
module Shared = Smoqe_automata.Shared

type result = {
  answers : int list;
  stats : Stats.t;
  cans_size : int;
  budget_hit : (string * string) option;
}

type many_result = Engine.pass = {
  by_query : int list array;
  m_stats : Stats.t;
  m_cans_size : int;
  m_budget_hit : (string * string) option;
}

(* Per-state pruning data, specialized against one document's tag table:
   the mandatory labels of every accepting path from the state, as tag ids
   (see {!Reachability}).  A mandatory label the document never uses means
   the state can never accept. *)
type prune_info =
  | Prune_always
  | Check of int array * bool (* required tag ids, text required *)

let prune_table mfa tree =
  let needs = Reachability.compute mfa.Mfa.nfa in
  Array.map
    (fun need ->
      match need with
      | Reachability.All -> Prune_always
      | Reachability.Req (labels, text) ->
        let ids = ref [] in
        let impossible = ref false in
        Reachability.String_set.iter
          (fun label ->
            match Tree.id_of_tag tree label with
            | Some id -> ids := id :: !ids
            | None -> impossible := true)
          labels;
        if !impossible then Prune_always
        else Check (Array.of_list !ids, text))
    needs

let rec tags_present idx n ids i =
  i >= Array.length ids
  || (Tax.mem idx n ids.(i) && tags_present idx n ids (i + 1))

(* Can a run in state [s] at node [n] still accept below it? *)
let state_useful info idx n has_text s =
  match info.(s) with
  | Prune_always -> false
  | Check (ids, text) -> ((not text) || has_text) && tags_present idx n ids 0

let run_many ?tax ?(prune_threshold = 48) ?budget ?trace ?tables
    ?(use_tables = true) ?memo_cap (sh : Shared.t) tree =
  let mfa = sh.Shared.mfa in
  (* A table built for exactly this tree can be reused (the plan
     cache hands one down); anything else is respecialized here so tag ids
     always align with [Tree.tag_id]. *)
  let tables, spec_us =
    if not use_tables then (None, 0)
    else
      match tables with
      | Some tb when Smoqe_automata.Tables.built_for tb tree -> (Some tb, 0)
      | Some _ | None ->
        let tb = Smoqe_automata.Tables.of_tree mfa.Mfa.nfa tree in
        (Some tb, Smoqe_automata.Tables.spec_us tb)
  in
  Engine.run_pass ?trace ?tables ?memo_cap ?budget ~spec_us sh
  @@ fun engine ~settle ->
  (* Budgets tick per node entered, on the engine's own node counter. *)
  if budget <> None then Engine.set_checkpoint engine settle;
  let stats = Engine.stats engine in
  let skip_subtree n m count_field =
    (* n itself was entered; only its proper descendants are skipped *)
    let skipped = Tree.subtree_size tree n - 1 in
    (match count_field with
    | `Dead ->
      stats.Stats.nodes_skipped_dead <-
        stats.Stats.nodes_skipped_dead + skipped
    | `Tax ->
      stats.Stats.nodes_pruned_tax <- stats.Stats.nodes_pruned_tax + skipped);
    match trace with
    | None -> ()
    | Some tr ->
      for d = n + 1 to Tree.subtree_end tree n - 1 do
        Trace.mark tr d m
      done
  in
  (* one element kind per tag id, shared by every node of that tag *)
  let elements =
    Array.init (Tree.n_tags tree) (fun tag -> Engine.El (Tree.tag_name tree tag))
  in
  let kind_of n tag =
    if tag = Tree.text_tag then
      let backing, off, len = Tree.content_slice tree n in
      Engine.Tx_sub (backing, off, len)
    else elements.(tag)
  in
  let descend_check =
    match tax with
    | None -> fun _ -> true
    | Some idx ->
      let info = prune_table mfa tree in
      fun n ->
        if Tree.subtree_size tree n < prune_threshold then true
          (* a small subtree costs less to scan than to test for pruning *)
        else begin
          let has_text = Tax.has_text idx n in
          (Engine.may_accept_value_here engine && has_text)
          || Engine.exists_live_state engine (state_useful info idx n has_text)
        end
  in
  (* Children by pre-order links: the first child is [n + 1], the next
     sibling of [c] is [subtree_end c]; a childless node ends at [n + 1]. *)
  let rec visit n =
    Failpoint.trigger "hype.step";
    let tag = Tree.tag_id tree n in
    match Engine.enter_tagged engine ~id:n ~tag ~kind:(kind_of n tag) with
    | Engine.Dead -> skip_subtree n Trace.Skipped_dead `Dead
    | Engine.Alive ->
      let stop = Tree.subtree_end tree n in
      (if stop = n + 1 then ()
       else if descend_check n then visit_children (n + 1) stop
       else skip_subtree n Trace.Pruned_tax `Tax);
      Engine.leave engine
  and visit_children c stop =
    if c < stop then begin
      visit c;
      visit_children (Tree.subtree_end tree c) stop
    end
  in
  visit Tree.root;
  stats.Stats.nodes_entered

let run ?tax ?prune_threshold ?budget ?trace ?tables ?use_tables ?memo_cap mfa
    tree =
  let m =
    run_many ?tax ?prune_threshold ?budget ?trace ?tables ?use_tables ?memo_cap
      (Shared.merge [| mfa |]) tree
  in
  {
    answers = m.by_query.(0);
    stats = m.m_stats;
    cans_size = m.m_cans_size;
    budget_hit = m.m_budget_hit;
  }

let eval ?tax tree path =
  let mfa = Smoqe_automata.Compile.compile path in
  (run ?tax mfa tree).answers
