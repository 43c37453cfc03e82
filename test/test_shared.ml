(* Tests for the batch layer: the merge as a union plus a quotient,
   qualifier sharing after the quotient, per-query accept
   demultiplexing, lazy-DFA epoch flushes mid-batch, and totality of
   Stats.merge_into over the record. *)

module Xml_parser = Smoqe_xml.Parser
module Pull = Smoqe_xml.Pull
module Rx_parser = Smoqe_rxpath.Parser
module Compile = Smoqe_automata.Compile
module Mfa = Smoqe_automata.Mfa
module Shared = Smoqe_automata.Shared
module Stats = Smoqe_hype.Stats
module Eval_dom = Smoqe_hype.Eval_dom
module Eval_stax = Smoqe_hype.Eval_stax
module Optimize = Smoqe_automata.Optimize
module Rewriter = Smoqe_rewrite.Rewriter
module Derive = Smoqe_security.Derive
module Hospital = Smoqe_workload.Hospital
module Queries = Smoqe_workload.Queries

let parse s =
  match Rx_parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let compile s = Compile.compile (parse s)
let merge qs = Shared.merge (Array.of_list (List.map compile qs))

(* --- merge construction ------------------------------------------------- *)

let test_merge_empty () =
  Alcotest.check_raises "empty batch"
    (Invalid_argument "Shared.merge: empty batch") (fun () ->
      ignore (Shared.merge [||]))

let test_merge_single () =
  let single = compile "//a/b" in
  let sh = Shared.merge [| single |] in
  Alcotest.(check int) "one query" 1 sh.Shared.n_queries;
  (* a batch of one is its member: no root, nothing saved *)
  Alcotest.(check bool) "the member itself" true (sh.Shared.mfa == single);
  Alcotest.(check int) "no root state" 0 (Shared.saved_states sh)

let doc_text =
  "<r><a><b>1</b><c>2</c><a><b>3</b></a></a><d><a><c>4</c></a></d></r>"

(* The members' disjoint union, quotiented with the owners in the Select
   label: every Select state has exactly one owner, every member keeps a
   Select state of its own, the result is already a quotient, and the
   demultiplexed answers equal the members' single runs. *)
let check_union_quotient queries =
  let sh = merge queries in
  let n = List.length queries in
  Alcotest.(check int) "queries" n sh.Shared.n_queries;
  let nfa = sh.Shared.mfa.Mfa.nfa in
  let selects = Array.make n 0 in
  Array.iteri
    (fun s accepts ->
      let select = List.mem Smoqe_automata.Nfa.Select accepts in
      let q = sh.Shared.owners.(s) in
      Alcotest.(check bool)
        (Printf.sprintf "state %d owned iff it selects" s)
        select (q >= 0);
      if select then selects.(q) <- selects.(q) + 1)
    nfa.Smoqe_automata.Nfa.accepts;
  Array.iteri
    (fun q n ->
      Alcotest.(check bool) (Printf.sprintf "query %d selects" q) true (n > 0))
    selects;
  let again, _ = Optimize.minimize ~owners:sh.Shared.owners sh.Shared.mfa in
  Alcotest.(check int) "already a quotient" sh.Shared.merged_states
    (Mfa.n_states again);
  (* the quotient never grows the union beyond its fresh root *)
  Alcotest.(check bool) "merged <= members + root" true
    (sh.Shared.merged_states <= sh.Shared.member_states + 1);
  let tree = Xml_parser.tree_of_string doc_text in
  let m = Eval_dom.run_many ~use_tables:true sh tree in
  List.iteri
    (fun i q ->
      Alcotest.(check (list int))
        (Printf.sprintf "demux %d: %s" i q)
        (Eval_dom.run ~use_tables:true (compile q) tree).Eval_dom.answers
        m.Eval_dom.by_query.(i))
    queries;
  (sh, m)

let test_union_then_quotient () =
  ignore (check_union_quotient [ "//a/b"; "//a/c"; "//a/b" ])

let test_prefix_collapse () =
  (* the //a prefixes of the two members have different futures, so the
     quotient keeps them apart; the lazy DFA steps the co-active prefix
     states as one memo row at run time *)
  ignore (check_union_quotient [ "//a/b"; "//a/c" ])

let test_identical_collapse () =
  (* two compilations of the same query: the duplicate keeps Select
     states of its own (owners are part of the Select label), so each
     query is answered separately and both get the same answers *)
  let sh, m = check_union_quotient [ "//a/b"; "//a/b" ] in
  let owned q =
    Array.fold_left (fun n o -> if o = q then n + 1 else n) 0 sh.Shared.owners
  in
  Alcotest.(check int) "same number of Select states" (owned 0) (owned 1);
  Alcotest.(check (list int)) "same answers" m.Eval_dom.by_query.(0)
    m.Eval_dom.by_query.(1)

let test_qualifier_states_not_fused () =
  (* the checked states select for different owners, so merging a
     qualifier query with itself may share the qualifier's atom subgraph
     but must not collapse fully *)
  let single = compile "//a[b]/c" in
  let sh = merge [ "//a[b]/c"; "//a[b]/c" ] in
  Alcotest.(check bool) "not a full collapse" true
    (sh.Shared.merged_states > Mfa.n_states single + 1)

(* The member views V1-V5, rewritten under S0 and optimized as the
   engine compiles them, merge into one qualifier per distinct formula,
   and one shared pass settles at most half the qualifier instances the
   five single passes do. *)
let test_view_batch_settles_once () =
  let view = Derive.derive Hospital.policy in
  let members =
    List.map
      (fun (_, q) -> Optimize.optimize (Rewriter.rewrite view (parse q)))
      Queries.view_suite
  in
  let sh = Shared.merge (Array.of_list members) in
  let quals = sh.Shared.mfa.Mfa.quals in
  Alcotest.(check int) "one qualifier per formula"
    (List.length (List.sort_uniq compare (Array.to_list quals)))
    (Array.length quals);
  let tree = Hospital.generate ~seed:11 ~n_patients:40 ~recursion_depth:2 () in
  let batch = Eval_dom.run_many ~use_tables:true sh tree in
  let singles =
    List.mapi
      (fun i m ->
        let r = Eval_dom.run ~use_tables:true m tree in
        Alcotest.(check (list int))
          (Printf.sprintf "V%d answers" (i + 1))
          r.Eval_dom.answers batch.Eval_dom.by_query.(i);
        r.Eval_dom.stats.Stats.quals_resolved)
      members
  in
  let members_sum = List.fold_left ( + ) 0 singles in
  let shared = batch.Eval_dom.m_stats.Stats.quals_resolved in
  Alcotest.(check bool)
    (Printf.sprintf "batch quals_resolved %d <= half of members' %d" shared
       members_sum)
    true
    (2 * shared <= members_sum)

(* --- engine demultiplexing ---------------------------------------------- *)

let batch = [ "//a/b"; "//a/c"; "//a[b]/c"; "//a/b" (* duplicate *) ]

let check_demux ~use_tables () =
  let tree = Xml_parser.tree_of_string doc_text in
  let sh = merge batch in
  let m = Eval_dom.run_many ~use_tables sh tree in
  Alcotest.(check int) "one slot per query" (List.length batch)
    (Array.length m.Eval_dom.by_query);
  List.iteri
    (fun i q ->
      let solo = Eval_dom.run ~use_tables (compile q) tree in
      Alcotest.(check (list int))
        (Printf.sprintf "dom demux %d: %s" i q)
        solo.Eval_dom.answers
        m.Eval_dom.by_query.(i))
    batch;
  Alcotest.(check int) "batch counter" (List.length batch)
    m.Eval_dom.m_stats.Stats.batch_queries;
  (* same demultiplexing over a scan of the document's bytes *)
  let ms =
    Eval_stax.run_slots ~use_tables sh (Pull.of_string doc_text)
  in
  List.iteri
    (fun i q ->
      let solo =
        Eval_stax.run_slots ~use_tables
          (Shared.merge [| compile q |])
          (Pull.of_string doc_text)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "stax demux %d: %s" i q)
        solo.Eval_stax.by_query.(0)
        ms.Eval_stax.by_query.(i))
    batch

let test_demux_tables () = check_demux ~use_tables:true ()
let test_demux_generic () = check_demux ~use_tables:false ()

let test_memo_flush_mid_batch () =
  (* a tiny memo cap forces lazy-DFA epoch flushes during the shared pass;
     answers must match the generic engine exactly *)
  let tree = Xml_parser.tree_of_string doc_text in
  let sh = merge batch in
  let flushed = Eval_dom.run_many ~use_tables:true ~memo_cap:2 sh tree in
  let generic = Eval_dom.run_many ~use_tables:false sh tree in
  Alcotest.(check bool) "flushes happened" true
    (flushed.Eval_dom.m_stats.Stats.memo_evictions > 0);
  Array.iteri
    (fun i answers ->
      Alcotest.(check (list int))
        (Printf.sprintf "flush-safe query %d" i)
        generic.Eval_dom.by_query.(i) answers)
    flushed.Eval_dom.by_query

(* --- stats totality ------------------------------------------------------ *)

let test_stats_merge_total () =
  (* Stats.t is an all-int record: poke every physical field to a non-zero
     value by reflection, merge into a zero record, and require every field
     to come through.  A counter added to the record but forgotten in
     merge_into (or in to_assoc) fails here. *)
  let s = Stats.zero () in
  let r = Obj.repr s in
  let n = Obj.size r in
  for i = 0 to n - 1 do
    assert (Obj.is_int (Obj.field r i));
    Obj.set_field r i (Obj.repr (i + 1))
  done;
  let into = Stats.zero () in
  Stats.merge_into ~into s;
  let ir = Obj.repr into in
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "field %d survives merge_into" i)
      true
      ((Obj.obj (Obj.field ir i) : int) > 0)
  done;
  Alcotest.(check int) "to_assoc covers the record" n
    (List.length (Stats.to_assoc s))

(* The tenancy counter rides the same record; pin its merge semantics
   by name (a sum, like every other additive counter) so a rename or a
   max-style merge regression is caught even if the reflection pass
   above is ever loosened. *)
let test_stats_merge_tenancy () =
  let a = Stats.zero () and b = Stats.zero () in
  a.Stats.policy_key_hits <- 2;
  b.Stats.policy_key_hits <- 3;
  let into = Stats.zero () in
  Stats.merge_into ~into a;
  Stats.merge_into ~into b;
  Alcotest.(check int) "policy_key_hits sums" 5 into.Stats.policy_key_hits;
  Alcotest.(check bool) "policy_key_hits exported by to_assoc" true
    (List.mem_assoc "policy_key_hits" (Stats.to_assoc into))

let () =
  Alcotest.run "smoqe_shared"
    [
      ( "merge",
        [
          Alcotest.test_case "empty batch rejected" `Quick test_merge_empty;
          Alcotest.test_case "single query" `Quick test_merge_single;
          Alcotest.test_case "prefix collapse" `Quick test_prefix_collapse;
          Alcotest.test_case "identical collapse" `Quick
            test_identical_collapse;
          Alcotest.test_case "union, then quotient" `Quick
            test_union_then_quotient;
          Alcotest.test_case "qualifier states stay private" `Quick
            test_qualifier_states_not_fused;
          Alcotest.test_case "view batch settles each qualifier once" `Quick
            test_view_batch_settles_once;
        ] );
      ( "demux",
        [
          Alcotest.test_case "dom+stax, tables" `Quick test_demux_tables;
          Alcotest.test_case "dom+stax, generic" `Quick test_demux_generic;
          Alcotest.test_case "memo flush mid-batch" `Quick
            test_memo_flush_mid_batch;
        ] );
      ( "stats",
        [
          Alcotest.test_case "merge_into is total" `Quick
            test_stats_merge_total;
          Alcotest.test_case "tenancy counters merge as sums" `Quick
            test_stats_merge_tenancy;
        ] );
    ]
