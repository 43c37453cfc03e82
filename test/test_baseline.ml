(* Tests for the baseline evaluators: agreement with the reference
   semantics, and the cost profiles the benchmarks rely on. *)

module Tree = Smoqe_xml.Tree
module Xml_parser = Smoqe_xml.Parser
module Ast = Smoqe_rxpath.Ast
module Rx_parser = Smoqe_rxpath.Parser
module Pretty = Smoqe_rxpath.Pretty
module Serializer = Smoqe_xml.Serializer
module Semantics = Smoqe_rxpath.Semantics
module Naive = Smoqe_baseline.Naive
module Xalan_like = Smoqe_baseline.Xalan_like
module Two_pass = Smoqe_baseline.Two_pass
module Eval_dom = Smoqe_hype.Eval_dom
module Stats = Smoqe_hype.Stats
module Hospital = Smoqe_workload.Hospital
module Queries = Smoqe_workload.Queries

let parse s =
  match Rx_parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let hospital = lazy (Hospital.generate ~seed:21 ~n_patients:15 ~recursion_depth:3 ())

let test_all_agree_on_suite () =
  let t = Lazy.force hospital in
  List.iter
    (fun (name, q) ->
      let expected = Semantics.answer_list t q in
      Alcotest.(check (list int)) (name ^ " naive") expected (Naive.run t q).Naive.answers;
      Alcotest.(check (list int)) (name ^ " xalan") expected
        (Xalan_like.run t q).Xalan_like.answers;
      Alcotest.(check (list int)) (name ^ " two-pass") expected
        (Two_pass.eval t q).Two_pass.answers)
    Queries.parsed

let test_two_pass_pass_count () =
  let t = Lazy.force hospital in
  let r = Two_pass.eval t (parse "patient/pname") in
  Alcotest.(check int) "three passes" 3 r.Two_pass.passes_over_data

let test_two_pass_predicate_work_everywhere () =
  (* Arb-style evaluation decides predicates at every node; HyPE only where
     runs are alive.  On a skewed document the work gap must show. *)
  let t = Lazy.force hospital in
  let q = parse "patient[visit/treatment/medication = 'autism']/pname" in
  let two = Two_pass.eval t q in
  Alcotest.(check bool) "bottom-up touches many (node, state) pairs" true
    (two.Two_pass.predicate_work > Tree.n_nodes t)

let test_xalan_retraversal_cost () =
  (* A predicate re-evaluated per candidate over a shared subtree:
     Xalan-like visits explode compared to document size. *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<r>";
  for _ = 1 to 100 do
    Buffer.add_string buf "<x><deep><a><b><c>v</c></b></a></deep></x>"
  done;
  Buffer.add_string buf "</r>";
  let t = Xml_parser.tree_of_string (Buffer.contents buf) in
  let q = parse "x[deep/a/b/c = 'v']/deep" in
  let r = Xalan_like.run t q in
  Alcotest.(check (list int)) "correct"
    (Semantics.answer_list t q) r.Xalan_like.answers;
  Alcotest.(check bool)
    (Printf.sprintf "visits %d > nodes %d" r.Xalan_like.node_visits (Tree.n_nodes t))
    true
    (r.Xalan_like.node_visits > Tree.n_nodes t)

let test_hype_single_pass_vs_two_pass () =
  let t = Lazy.force hospital in
  let q = parse Queries.q0 in
  let hype = Eval_dom.run (Smoqe_automata.Compile.compile q) t in
  let two = Two_pass.eval t q in
  Alcotest.(check (list int)) "same answers" two.Two_pass.answers
    hype.Eval_dom.answers;
  Alcotest.(check int) "hype: one pass" 1
    hype.Eval_dom.stats.Stats.passes_over_data;
  Alcotest.(check int) "two-pass: three" 3 two.Two_pass.passes_over_data

(* Property: all four evaluators agree on random inputs. *)
let tag_gen = QCheck2.Gen.oneofl [ "a"; "b"; "c" ]
let value_gen = QCheck2.Gen.oneofl [ "x"; "y" ]

let rec path_gen n =
  QCheck2.Gen.(
    if n = 0 then
      oneof
        [ return Ast.Self; map (fun t -> Ast.Tag t) tag_gen;
          return Ast.Wildcard; return Ast.Text ]
    else
      frequency
        [
          (3, map (fun t -> Ast.Tag t) tag_gen);
          (3, map2 Ast.seq (path_gen (n / 2)) (path_gen (n / 2)));
          (2, map2 Ast.union (path_gen (n / 2)) (path_gen (n / 2)));
          (2, map Ast.star (path_gen (n - 1)));
          (2, map2 Ast.filter (path_gen (n / 2)) (qual_gen (n / 2)));
        ])

and qual_gen n =
  QCheck2.Gen.(
    if n = 0 then
      oneof
        [
          map (fun p -> Ast.Exists p) (path_gen 0);
          map2 (fun p v -> Ast.Value_eq (p, v)) (path_gen 0) value_gen;
        ]
    else
      frequency
        [
          (3, map (fun p -> Ast.Exists p) (path_gen (n - 1)));
          (2, map2 (fun p v -> Ast.Value_eq (p, v)) (path_gen (n - 1)) value_gen);
          (2, map Ast.q_not (qual_gen (n - 1)));
          (1, map2 Ast.q_and (qual_gen (n / 2)) (qual_gen (n / 2)));
          (1, map2 Ast.q_or (qual_gen (n / 2)) (qual_gen (n / 2)));
        ])

let source_gen =
  QCheck2.Gen.(
    sized_size (int_bound 5)
    @@ fix (fun self n ->
           if n = 0 then
             oneof
               [
                 map (fun s -> Tree.T s) value_gen;
                 map (fun t -> Tree.E (t, [], [])) tag_gen;
               ]
           else
             map2
               (fun t kids -> Tree.E (t, [], kids))
               tag_gen
               (list_size (int_bound 3) (self (n / 2)))))

let doc_gen =
  QCheck2.Gen.(
    map
      (fun kids -> Tree.of_source (Tree.E ("r", [], kids)))
      (list_size (int_bound 4) source_gen))

let print_case (t, p) =
  Printf.sprintf "doc: %s\nquery: %s"
    (Serializer.to_string ~indent:false t)
    (Pretty.path_to_string p)

let case_gen = QCheck2.Gen.(pair doc_gen (sized_size (int_bound 8) path_gen))

let prop_xalan_equals_oracle =
  QCheck2.Test.make ~count:500 ~name:"Xalan-like = oracle" ~print:print_case
    case_gen (fun (t, p) ->
      (Xalan_like.run t p).Xalan_like.answers = Semantics.answer_list t p)

let prop_two_pass_equals_oracle =
  QCheck2.Test.make ~count:500 ~name:"two-pass = oracle" ~print:print_case
    case_gen (fun (t, p) ->
      (Two_pass.eval t p).Two_pass.answers = Semantics.answer_list t p)

let qsuite =
  Qcheck_seed.to_alcotest
    [ prop_xalan_equals_oracle; prop_two_pass_equals_oracle ]

let () =
  Alcotest.run "smoqe_baseline"
    [
      ( "agreement",
        [
          Alcotest.test_case "query suite" `Quick test_all_agree_on_suite;
          Alcotest.test_case "hype vs two-pass" `Quick
            test_hype_single_pass_vs_two_pass;
        ] );
      ( "cost profiles",
        [
          Alcotest.test_case "two-pass count" `Quick test_two_pass_pass_count;
          Alcotest.test_case "predicate work" `Quick
            test_two_pass_predicate_work_everywhere;
          Alcotest.test_case "xalan re-traversal" `Quick
            test_xalan_retraversal_cost;
        ] );
      ("properties", qsuite);
    ]
