(* Tests for the MFA optimizer: size reduction and answer preservation. *)

module Tree = Smoqe_xml.Tree
module Xml_parser = Smoqe_xml.Parser
module Serializer = Smoqe_xml.Serializer
module Pull = Smoqe_xml.Pull
module Ast = Smoqe_rxpath.Ast
module Rx_parser = Smoqe_rxpath.Parser
module Pretty = Smoqe_rxpath.Pretty
module Semantics = Smoqe_rxpath.Semantics
module Compile = Smoqe_automata.Compile
module Mfa = Smoqe_automata.Mfa
module Shared = Smoqe_automata.Shared
module Optimize = Smoqe_automata.Optimize
module Nfa = Smoqe_automata.Nfa
module Eval_dom = Smoqe_hype.Eval_dom
module Eval_stax = Smoqe_hype.Eval_stax
module Rewriter = Smoqe_rewrite.Rewriter
module Derive = Smoqe_security.Derive
module Hospital = Smoqe_workload.Hospital
module Queries = Smoqe_workload.Queries

let parse s =
  match Rx_parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let test_shrinks_thompson_glue () =
  (* Stars and unions create epsilon chains; the optimizer must fold them. *)
  let mfa = Compile.compile (parse "(a | b)*/c/(d)*") in
  let opt, report = Optimize.optimize_with_report mfa in
  Alcotest.(check bool)
    (Fmt.str "%a" Optimize.pp_report report)
    true
    (Mfa.n_states opt < Mfa.n_states mfa);
  (* No check-free epsilon edges may remain. *)
  let nfa = opt.Mfa.nfa in
  Array.iteri
    (fun _ eps ->
      List.iter
        (fun v ->
          Alcotest.(check bool) "eps targets are check-guarded" true
            (nfa.Smoqe_automata.Nfa.checks.(v) <> []))
        eps)
    nfa.Smoqe_automata.Nfa.eps

let test_drops_unreachable_branch () =
  (* A branch on a label that cannot accept (dead end after the label is
     not possible here, so craft one via the builder). *)
  let b = Mfa.create_builder () in
  let s0 = Mfa.fresh_state b in
  let s1 = Mfa.fresh_state b in
  let dead = Mfa.fresh_state b in
  let dead2 = Mfa.fresh_state b in
  Mfa.add_edge b s0 (Smoqe_automata.Nfa.Element "a") s1;
  Mfa.add_select b s1;
  (* dead branch: consumes b, goes nowhere *)
  Mfa.add_edge b s0 (Smoqe_automata.Nfa.Element "b") dead;
  Mfa.add_edge b dead (Smoqe_automata.Nfa.Element "c") dead2;
  let mfa = Mfa.freeze b ~start:s0 in
  let opt, report = Optimize.optimize_with_report mfa in
  Alcotest.(check int) "two states left" 2 report.Optimize.states_after;
  Alcotest.(check int) "one transition left" 1
    (Mfa.n_transitions opt)

let test_preserves_answers_on_suite () =
  let doc = Hospital.generate ~seed:77 ~n_patients:12 ~recursion_depth:3 () in
  let bytes = Serializer.to_string ~indent:false doc in
  List.iter
    (fun (name, q) ->
      let mfa = Compile.compile q in
      let opt = Optimize.optimize mfa in
      Alcotest.(check (list int))
        (name ^ " dom")
        (Eval_dom.run mfa doc).Eval_dom.answers
        (Eval_dom.run opt doc).Eval_dom.answers;
      let stax m =
        (Eval_stax.run_slots (Shared.merge [| m |]) (Pull.of_string bytes))
          .Eval_stax.by_query.(0)
      in
      Alcotest.(check (list int)) (name ^ " stax") (stax mfa) (stax opt))
    Queries.parsed

let test_shrinks_rewritten_mfa () =
  (* The product construction leaves unreachable type-layer copies: the
     optimizer should cut a large fraction. *)
  let view = Derive.derive Hospital.policy in
  let q = parse "patient[treatment/medication = 'autism']/treatment" in
  let mfa = Rewriter.rewrite view q in
  let opt, report = Optimize.optimize_with_report mfa in
  Alcotest.(check bool)
    (Fmt.str "%a" Optimize.pp_report report)
    true
    (2 * Mfa.n_states opt < Mfa.n_states mfa);
  let doc = Hospital.generate ~seed:78 ~n_patients:10 ~recursion_depth:2 () in
  Alcotest.(check (list int))
    "rewritten answers preserved"
    (Eval_dom.run mfa doc).Eval_dom.answers
    (Eval_dom.run opt doc).Eval_dom.answers

let test_idempotent () =
  let mfa = Compile.compile (parse "(a | b)*/c[d and not(e)]") in
  let once = Optimize.optimize mfa in
  let twice, report = Optimize.optimize_with_report once in
  Alcotest.(check int) "states stable" (Mfa.n_states once)
    report.Optimize.states_after;
  Alcotest.(check int) "transitions stable"
    (Mfa.n_transitions once)
    (Mfa.n_transitions twice)

(* Property: optimized MFA = oracle on random docs and queries. *)
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

let prop_optimized_equals_oracle =
  QCheck2.Test.make ~count:1000 ~name:"optimized MFA = oracle"
    ~print:print_case
    QCheck2.Gen.(pair doc_gen (sized_size (int_bound 8) path_gen))
    (fun (t, p) ->
      let opt = Optimize.optimize (Compile.compile p) in
      (Eval_dom.run opt t).Eval_dom.answers = Semantics.answer_list t p)

(* Property: the quotient is a fixed point and leaves no duplicate.  A
   second [optimize] keeps every count; no two atoms share a (start,
   value); no two qualifiers share a formula; every qualifier is checked
   by some state. *)
let canonical (mfa : Mfa.t) =
  let nfa = mfa.Mfa.nfa in
  let again = Optimize.optimize mfa in
  let distinct a = List.length (List.sort_uniq compare (Array.to_list a)) in
  let checked = Array.make (Mfa.n_quals mfa) false in
  Array.iter (List.iter (fun q -> checked.(q) <- true)) nfa.Nfa.checks;
  Mfa.n_states again = Mfa.n_states mfa
  && Mfa.n_transitions again = Mfa.n_transitions mfa
  && Mfa.n_quals again = Mfa.n_quals mfa
  && Mfa.n_atoms again = Mfa.n_atoms mfa
  && distinct mfa.Mfa.atoms = Mfa.n_atoms mfa
  && distinct mfa.Mfa.quals = Mfa.n_quals mfa
  && Array.for_all Fun.id checked

let prop_quotient_canonical =
  QCheck2.Test.make ~count:1000 ~name:"quotient is canonical"
    ~print:print_case
    QCheck2.Gen.(pair doc_gen (sized_size (int_bound 8) path_gen))
    (fun (_, p) -> canonical (Optimize.optimize (Compile.compile p)))

let test_rewritten_canonical () =
  let view = Derive.derive Hospital.policy in
  List.iter
    (fun (name, q) ->
      Alcotest.(check bool) name true
        (canonical (Optimize.optimize (Rewriter.rewrite view (parse q)))))
    Queries.view_suite

let qsuite =
  Qcheck_seed.to_alcotest
    [ prop_optimized_equals_oracle; prop_quotient_canonical ]

let () =
  Alcotest.run "smoqe_optimize"
    [
      ( "transformations",
        [
          Alcotest.test_case "folds thompson glue" `Quick
            test_shrinks_thompson_glue;
          Alcotest.test_case "drops dead branches" `Quick
            test_drops_unreachable_branch;
          Alcotest.test_case "idempotent" `Quick test_idempotent;
          Alcotest.test_case "rewritten views are canonical" `Quick
            test_rewritten_canonical;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "query suite" `Quick test_preserves_answers_on_suite;
          Alcotest.test_case "rewritten views" `Quick test_shrinks_rewritten_mfa;
        ] );
      ("properties", qsuite);
    ]
