(* Tests for the automata layer: NFA building, MFA compilation sizes,
   reachability analysis, DOT export. *)

module Ast = Smoqe_rxpath.Ast
module Parser = Smoqe_rxpath.Parser
module Nfa = Smoqe_automata.Nfa
module Afa = Smoqe_automata.Afa
module Mfa = Smoqe_automata.Mfa
module Compile = Smoqe_automata.Compile
module Reachability = Smoqe_automata.Reachability
module Dot = Smoqe_automata.Dot

let parse s =
  match Parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let q0 =
  "hospital/patient[(parent/patient)*/visit/treatment/test and \
   visit/treatment[medication/text()=\"headache\"]]/pname"

(* --- Nfa --------------------------------------------------------------- *)

let test_nfa_builder () =
  let b = Nfa.create_builder () in
  let s0 = Nfa.fresh_state b in
  let s1 = Nfa.fresh_state b in
  let s2 = Nfa.fresh_state b in
  Nfa.add_edge b s0 (Nfa.Element "a") s1;
  Nfa.add_eps b s1 s2;
  Nfa.add_accept b s2 Nfa.Select;
  let nfa = Nfa.freeze b in
  Alcotest.(check int) "states" 3 nfa.Nfa.n_states;
  Alcotest.(check int) "transitions" 2 (Nfa.n_transitions nfa);
  Alcotest.(check (list int)) "closure of s1" [ 1; 2 ]
    (Nfa.eps_closure nfa [ s1 ]);
  Alcotest.(check (list int)) "reachable from s0" [ 0; 1; 2 ]
    (Nfa.reachable_states nfa s0)

let test_nfa_dedup () =
  let b = Nfa.create_builder () in
  let s0 = Nfa.fresh_state b in
  let s1 = Nfa.fresh_state b in
  Nfa.add_edge b s0 (Nfa.Element "a") s1;
  Nfa.add_edge b s0 (Nfa.Element "a") s1;
  Nfa.add_eps b s0 s1;
  Nfa.add_eps b s0 s1;
  Nfa.add_eps b s0 s0 (* self-eps dropped *);
  let nfa = Nfa.freeze b in
  Alcotest.(check int) "deduped" 2 (Nfa.n_transitions nfa)

let test_nfa_invalid_state () =
  let b = Nfa.create_builder () in
  let s0 = Nfa.fresh_state b in
  Alcotest.check_raises "unknown state" (Invalid_argument "Nfa: unknown state")
    (fun () -> Nfa.add_edge b s0 Nfa.Any_element 42)

(* --- Compile ----------------------------------------------------------- *)

let test_compile_simple () =
  let mfa = Compile.compile (parse "a/b") in
  Alcotest.(check int) "no quals" 0 (Mfa.n_quals mfa);
  Alcotest.(check int) "no atoms" 0 (Mfa.n_atoms mfa);
  Alcotest.(check int) "states" 3 (Mfa.n_states mfa)

let test_compile_q0 () =
  let mfa = Compile.compile (parse q0) in
  (* One top-level qualifier (the conjunction), one nested (medication...) *)
  Alcotest.(check int) "quals" 2 (Mfa.n_quals mfa);
  (* Atoms: the (parent/patient)*... path, the visit/treatment[...] path,
     and the nested medication/text() path. *)
  Alcotest.(check int) "atoms" 3 (Mfa.n_atoms mfa)

let test_compile_linear_size () =
  (* MFA size must grow linearly with query size: the defining property of
     the representation (paper §3, Rewriter). *)
  let base = "a[b = 'x']" in
  let sizes =
    List.map
      (fun k ->
        let q = String.concat "/" (List.init k (fun _ -> base)) in
        (Ast.size (parse q), Mfa.size (Compile.compile (parse q))))
      [ 1; 2; 4; 8; 16; 32 ]
  in
  let ratios =
    List.map (fun (ast, mfa) -> float_of_int mfa /. float_of_int ast) sizes
  in
  let min_r = List.fold_left min infinity ratios in
  let max_r = List.fold_left max 0. ratios in
  Alcotest.(check bool)
    (Printf.sprintf "ratio stable (%.2f..%.2f)" min_r max_r)
    true
    (max_r /. min_r < 1.5)

let test_compile_nested_quals_ordered () =
  (* Inner qualifiers must receive smaller ids than the qualifiers that
     contain them — HyPE's post-visit resolution relies on it. *)
  let mfa = Compile.compile (parse "a[b[c[d]]]") in
  Alcotest.(check int) "three quals" 3 (Mfa.n_quals mfa);
  (* The outermost formula must reference an atom whose sub-NFA carries
     checks for a smaller qual id; verified structurally: every state's
     checks reference qual ids < the number of quals, and the outer qual id
     (2) guards a state reachable from the selection start. *)
  let nfa = mfa.Mfa.nfa in
  Array.iteri
    (fun _ checks ->
      List.iter
        (fun q ->
          Alcotest.(check bool) "check id in range" true
            (q >= 0 && q < Mfa.n_quals mfa))
        checks)
    nfa.Nfa.checks

(* --- Reachability ------------------------------------------------------ *)

let must_labels = function
  | Reachability.All -> Alcotest.fail "expected Req"
  | Reachability.Req (labels, text) ->
    (Reachability.String_set.elements labels, text)

let test_reachability_labels () =
  let mfa = Compile.compile (parse "a/b/c") in
  let needs = Reachability.compute mfa.Mfa.nfa in
  let labels, text = must_labels needs.(mfa.Mfa.start) in
  Alcotest.(check (list string)) "all three mandatory" [ "a"; "b"; "c" ] labels;
  Alcotest.(check bool) "no text requirement" false text

let test_reachability_wildcard_and_text () =
  (* Wildcards impose no requirement, but the final text() does. *)
  let mfa = Compile.compile (parse "//text()") in
  let needs = Reachability.compute mfa.Mfa.nfa in
  let labels, text = must_labels needs.(mfa.Mfa.start) in
  Alcotest.(check (list string)) "no label requirement" [] labels;
  Alcotest.(check bool) "text required" true text

let test_reachability_anchor_behind_descendant () =
  (* The key TAX property: //leaf still requires leaf. *)
  let mfa = Compile.compile (parse "//leaf") in
  let needs = Reachability.compute mfa.Mfa.nfa in
  let labels, _ = must_labels needs.(mfa.Mfa.start) in
  Alcotest.(check (list string)) "leaf anchors" [ "leaf" ] labels

let test_reachability_cycle () =
  (* The loop is optional, so only c is mandatory on every accepting path. *)
  let mfa = Compile.compile (parse "(a/b)*/c") in
  let needs = Reachability.compute mfa.Mfa.nfa in
  let labels, _ = must_labels needs.(mfa.Mfa.start) in
  Alcotest.(check (list string)) "only c mandatory" [ "c" ] labels

let test_reachability_union_meet () =
  (* Two alternatives: only the common requirement survives. *)
  let mfa = Compile.compile (parse "a/x | b/x") in
  let needs = Reachability.compute mfa.Mfa.nfa in
  let labels, _ = must_labels needs.(mfa.Mfa.start) in
  Alcotest.(check (list string)) "x common" [ "x" ] labels

let test_reachability_dead_end () =
  (* A state with no route to acceptance is All (always prunable). *)
  let b = Nfa.create_builder () in
  let s0 = Nfa.fresh_state b in
  let s1 = Nfa.fresh_state b in
  Nfa.add_edge b s0 (Nfa.Element "a") s1;
  (* no accept anywhere *)
  let nfa = Nfa.freeze b in
  let needs = Reachability.compute nfa in
  Alcotest.(check bool) "dead end" true (needs.(s0) = Reachability.All)

let test_useless () =
  let mfa = Compile.compile (parse "a/b") in
  let needs = Reachability.compute mfa.Mfa.nfa in
  let s = needs.(mfa.Mfa.start) in
  Alcotest.(check bool) "a and b below" false
    (Reachability.useless s
       ~in_subtree:(fun l -> l = "a" || l = "b")
       ~has_text:false);
  Alcotest.(check bool) "missing a" true
    (Reachability.useless s ~in_subtree:(fun l -> l = "b") ~has_text:false);
  Alcotest.(check bool) "only z below" true
    (Reachability.useless s ~in_subtree:(fun l -> l = "z") ~has_text:true)

(* --- Analysis ------------------------------------------------------------ *)

module Analysis = Smoqe_automata.Analysis
module Dtd = Smoqe_xml.Dtd

let hospital_dtd = Smoqe_workload.Hospital.dtd

let verdict q =
  Analysis.satisfiable (Compile.compile (parse q)) hospital_dtd

let test_analysis_satisfiable () =
  List.iter
    (fun q ->
      match verdict q with
      | Analysis.Possibly_nonempty -> ()
      | Analysis.Empty -> Alcotest.fail (q ^ " judged empty"))
    [
      "patient/pname";
      "//medication";
      "(patient/parent)*/patient";
      "patient/pname/text()";
      ".";
    ]

let test_analysis_empty () =
  List.iter
    (fun q ->
      match verdict q with
      | Analysis.Empty -> ()
      | Analysis.Possibly_nonempty -> Alcotest.fail (q ^ " judged satisfiable"))
    [
      "zebra" (* undeclared tag *);
      "//zebra";
      "hospital" (* the root is not its own child *);
      "patient/medication" (* violates parent/child relation *);
      "pname/patient" (* upside down *);
      "patient/pname/pname";
      "//hospital";
      "patient/text()" (* patient has element content, no text *);
    ]

let test_analysis_rewritten_hidden_types () =
  (* After view rewriting, queries about hidden types are provably empty —
     the optimizer can refuse them without touching the data. *)
  let view = Smoqe_security.Derive.derive Smoqe_workload.Hospital.policy in
  let check q expected =
    let mfa = Smoqe_rewrite.Rewriter.rewrite view (parse q) in
    let got = Analysis.satisfiable mfa hospital_dtd in
    Alcotest.(check bool) q true (got = expected)
  in
  check "//pname" Analysis.Empty;
  check "patient/visit" Analysis.Empty;
  check "//test" Analysis.Empty;
  check "patient/treatment/medication" Analysis.Possibly_nonempty;
  check "(patient/parent)*/patient" Analysis.Possibly_nonempty

let test_analysis_product_bounded () =
  let mfa = Compile.compile (parse "(*)*") in
  let pairs = Analysis.reachable_type_pairs mfa hospital_dtd in
  (* at most states x (types + text) *)
  Alcotest.(check bool) "bounded" true
    (pairs <= Mfa.n_states mfa * 10)

(* --- Afa ---------------------------------------------------------------- *)

let test_afa_eval () =
  let f =
    Afa.F_and (Afa.F_or (Afa.F_atom 0, Afa.F_atom 1), Afa.F_not (Afa.F_atom 2))
  in
  Alcotest.(check bool) "sat" true (Afa.eval f (fun i -> i = 0));
  Alcotest.(check bool) "unsat" false (Afa.eval f (fun i -> i = 2));
  Alcotest.(check bool) "true" true (Afa.eval Afa.F_true (fun _ -> false));
  Alcotest.(check (list int)) "atoms" [ 0; 1; 2 ] (Afa.atoms_of f)

(* --- Dot ----------------------------------------------------------------- *)

let test_dot_output () =
  let mfa = Compile.compile (parse q0) in
  let dot = Dot.mfa_to_dot mfa in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions hospital" true (contains dot "hospital");
  Alcotest.(check bool) "mentions qualifier box" true (contains dot "q0:");
  let ascii = Dot.mfa_to_ascii mfa in
  Alcotest.(check bool) "ascii mentions SELECT" true (contains ascii "SELECT");
  Alcotest.(check bool) "ascii mentions CHECK" true (contains ascii "CHECK")

(* --- Property: compiled size linear -------------------------------------- *)

let tag_gen = QCheck2.Gen.oneofl [ "a"; "b"; "c" ]

let rec path_gen n =
  QCheck2.Gen.(
    if n = 0 then
      oneof [ return Ast.Self; map (fun t -> Ast.Tag t) tag_gen;
              return Ast.Wildcard; return Ast.Text ]
    else
      frequency
        [
          (2, map (fun t -> Ast.Tag t) tag_gen);
          (2, map2 Ast.seq (path_gen (n / 2)) (path_gen (n / 2)));
          (1, map2 Ast.union (path_gen (n / 2)) (path_gen (n / 2)));
          (1, map Ast.star (path_gen (n - 1)));
          (1, map2 Ast.filter (path_gen (n / 2)) (qual_gen (n / 2)));
        ])

and qual_gen n =
  QCheck2.Gen.(
    if n = 0 then map (fun p -> Ast.Exists p) (path_gen 0)
    else
      frequency
        [
          (2, map (fun p -> Ast.Exists p) (path_gen (n - 1)));
          (1, map2 (fun p v -> Ast.Value_eq (p, v)) (path_gen (n - 1))
               (oneofl [ "x"; "y" ]));
          (1, map Ast.q_not (qual_gen (n - 1)));
          (1, map2 Ast.q_and (qual_gen (n / 2)) (qual_gen (n / 2)));
        ])

let prop_mfa_linear =
  QCheck2.Test.make ~count:300 ~name:"MFA size bounded linearly in query size"
    QCheck2.Gen.(sized_size (int_bound 9) path_gen)
    (fun p ->
      let mfa = Compile.compile p in
      Mfa.size mfa <= 8 * Ast.size p + 8)

let qsuite = Qcheck_seed.to_alcotest [ prop_mfa_linear ]

let () =
  Alcotest.run "smoqe_automata"
    [
      ( "nfa",
        [
          Alcotest.test_case "builder" `Quick test_nfa_builder;
          Alcotest.test_case "dedup" `Quick test_nfa_dedup;
          Alcotest.test_case "invalid state" `Quick test_nfa_invalid_state;
        ] );
      ( "compile",
        [
          Alcotest.test_case "simple" `Quick test_compile_simple;
          Alcotest.test_case "paper Q0" `Quick test_compile_q0;
          Alcotest.test_case "linear size" `Quick test_compile_linear_size;
          Alcotest.test_case "nested qual ids" `Quick
            test_compile_nested_quals_ordered;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "labels" `Quick test_reachability_labels;
          Alcotest.test_case "wildcard and text" `Quick
            test_reachability_wildcard_and_text;
          Alcotest.test_case "descendant anchor" `Quick
            test_reachability_anchor_behind_descendant;
          Alcotest.test_case "union meet" `Quick test_reachability_union_meet;
          Alcotest.test_case "dead end" `Quick test_reachability_dead_end;
          Alcotest.test_case "cycles" `Quick test_reachability_cycle;
          Alcotest.test_case "useless" `Quick test_useless;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "satisfiable" `Quick test_analysis_satisfiable;
          Alcotest.test_case "empty" `Quick test_analysis_empty;
          Alcotest.test_case "hidden types" `Quick
            test_analysis_rewritten_hidden_types;
          Alcotest.test_case "product bounded" `Quick
            test_analysis_product_bounded;
        ] );
      ("afa", [ Alcotest.test_case "eval" `Quick test_afa_eval ]);
      ("dot", [ Alcotest.test_case "export" `Quick test_dot_output ]);
      ("properties", qsuite);
    ]
