module Tree = Smoqe_xml.Tree
module Tax = Smoqe_tax.Tax
module Reachability = Smoqe_automata.Reachability
module Mfa = Smoqe_automata.Mfa
module Budget = Smoqe_robust.Budget
module Failpoint = Smoqe_robust.Failpoint

module Shared = Smoqe_automata.Shared

type result = {
  answers : int list;
  stats : Stats.t;
  cans_size : int;
  budget_hit : (string * string) option;
}

type many_result = {
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

let run_slots ?tax ?(prune_threshold = 48) ?budget ?trace ?tables
    ?(use_tables = true) ?memo_cap ?shared mfa tree =
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
  let engine =
    Engine.create ?trace ?tables ?memo_cap
      ?owners:(Option.map (fun sh -> sh.Shared.owners) shared)
      ?n_queries:(Option.map (fun sh -> sh.Shared.n_queries) shared)
      mfa
  in
  let stats = Engine.stats engine in
  stats.Stats.table_spec_us <- spec_us;
  Option.iter (Stats.note_shared stats) shared;
  let settled = ref 0 in
  (* The budget rides the engine's own node counter (see
     {!Engine.set_checkpoint}): it settles every 32 nodes, audits the
     Cans size every 256, and a final settlement after the traversal
     covers small documents.  The budgeted hot path therefore adds no
     per-node work at all, which is what holds the overhead guard
     (bench E10). *)
  (match budget with
  | None -> ()
  | Some b ->
    Engine.set_checkpoint engine (fun n ->
        Budget.tick_nodes b (n - !settled);
        settled := n;
        if n land 255 = 0 then Budget.check_cans b (Engine.cans_size engine)));
  let checkpoint () = Failpoint.trigger "hype.step" in
  let final_check () =
    match budget with
    | None -> ()
    | Some b ->
      Budget.tick_nodes b (stats.Stats.nodes_entered - !settled);
      settled := stats.Stats.nodes_entered;
      Budget.check_cans b (Engine.cans_size engine);
      Budget.check_deadline b
  in
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
  let kind_of n =
    if Tree.is_text tree n then
      let backing, off, len = Tree.content_slice tree n in
      Engine.Tx_sub (backing, off, len)
    else Engine.El (Tree.name tree n)
  in
  let descend_check =
    match tax with
    | None -> fun _ -> true
    | Some idx ->
      let info = prune_table mfa tree in
      fun n ->
        if Tree.is_text tree n then false (* no children anyway *)
        else if Tree.subtree_size tree n < prune_threshold then true
          (* a small subtree costs less to scan than to test for pruning *)
        else begin
          let has_text = Tax.has_text idx n in
          (Engine.may_accept_value_here engine && has_text)
          ||
          let state_useful s =
            match info.(s) with
            | Prune_always -> false
            | Check (ids, text) ->
              ((not text) || has_text)
              && Array.for_all (fun id -> Tax.mem idx n id) ids
          in
          Engine.exists_live_state engine state_useful
        end
  in
  let rec visit n =
    checkpoint ();
    match
      Engine.enter_tagged engine ~id:n ~tag:(Tree.tag_id tree n)
        ~kind:(kind_of n)
    with
    | Engine.Dead -> skip_subtree n Trace.Skipped_dead `Dead
    | Engine.Alive ->
      (if tax = None || Tree.first_child tree n = None || descend_check n then
         Tree.iter_children tree n visit
       else skip_subtree n Trace.Pruned_tax `Tax);
      Engine.leave engine
  in
  let budget_hit = ref None in
  (try
     visit Tree.root;
     final_check ()
   with Budget.Exceeded { what; limit } -> budget_hit := Some (what, limit));
  (* On a budget stop the traversal is incomplete: answers cannot be
     resolved, but the statistics accumulated so far are still reported. *)
  let by_query =
    match !budget_hit with
    | None -> Engine.finish engine
    | Some _ -> Array.make (Engine.n_queries engine) []
  in
  {
    by_query;
    m_stats = stats;
    m_cans_size = Engine.cans_size engine;
    m_budget_hit = !budget_hit;
  }

let run ?tax ?prune_threshold ?budget ?trace ?tables ?use_tables ?memo_cap mfa
    tree =
  let m =
    run_slots ?tax ?prune_threshold ?budget ?trace ?tables ?use_tables ?memo_cap
      mfa tree
  in
  {
    answers = m.by_query.(0);
    stats = m.m_stats;
    cans_size = m.m_cans_size;
    budget_hit = m.m_budget_hit;
  }

let run_many ?tax ?prune_threshold ?budget ?trace ?tables ?use_tables ?memo_cap
    (sh : Shared.t) tree =
  run_slots ?tax ?prune_threshold ?budget ?trace ?tables ?use_tables ?memo_cap
    ~shared:sh sh.Shared.mfa tree

let eval ?tax tree path =
  let mfa = Smoqe_automata.Compile.compile path in
  (run ?tax mfa tree).answers
