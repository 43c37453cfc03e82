(* Tests for query rewriting over virtual views: the MFA rewriter and the
   expression-level rewriter, against the materialization oracle.  The
   central contract is the paper's: Q'(T) = Q(V(T)). *)

module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Ast = Smoqe_rxpath.Ast
module Rx_parser = Smoqe_rxpath.Parser
module Pretty = Smoqe_rxpath.Pretty
module Semantics = Smoqe_rxpath.Semantics
module Mfa = Smoqe_automata.Mfa
module Derive = Smoqe_security.Derive
module Materialize = Smoqe_security.Materialize
module Rewriter = Smoqe_rewrite.Rewriter
module Expr_rewriter = Smoqe_rewrite.Expr_rewriter
module Eval_dom = Smoqe_hype.Eval_dom
module Hospital = Smoqe_workload.Hospital
module Bib = Smoqe_workload.Bib
module Random_dtd = Smoqe_workload.Random_dtd
module Docgen = Smoqe_workload.Docgen
module Queries = Smoqe_workload.Queries

let parse s =
  match Rx_parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let view = lazy (Derive.derive Hospital.policy)

let hospital_doc = lazy (Hospital.generate ~seed:5 ~n_patients:12 ~recursion_depth:3 ())

(* Answer sets as sorted doc-node lists. *)
let mfa_answers view doc q =
  let mfa = Rewriter.rewrite view q in
  (Eval_dom.run mfa doc).Eval_dom.answers |> List.sort_uniq compare

let expr_answers view doc q =
  let e = Expr_rewriter.rewrite view q in
  Semantics.answer_list doc e

let oracle_answers view doc q = Materialize.doc_answers view doc q

let check_rewrite ?(name = "") view doc q_text =
  let q = parse q_text in
  let expected = oracle_answers view doc q in
  Alcotest.(check (list int))
    (Printf.sprintf "%s mfa: %s" name q_text)
    expected (mfa_answers view doc q);
  Alcotest.(check (list int))
    (Printf.sprintf "%s expr: %s" name q_text)
    expected (expr_answers view doc q)

(* --- Hospital view ------------------------------------------------------- *)

let test_rewrite_hospital_simple () =
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  List.iter
    (fun q -> check_rewrite ~name:"hospital" v doc q)
    [
      "patient";
      "patient/treatment";
      "patient/treatment/medication";
      "patient/treatment/medication/text()";
      ".";
      "*";
      "*/*";
    ]

let test_rewrite_hospital_recursive () =
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  List.iter
    (fun q -> check_rewrite ~name:"hospital" v doc q)
    [
      "(patient/parent)*/patient";
      "patient/parent/patient/treatment";
      "//medication";
      "//patient";
      "//*";
    ]

let test_rewrite_hospital_filters () =
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  List.iter
    (fun q -> check_rewrite ~name:"hospital" v doc q)
    [
      "patient[treatment]";
      "patient[not(treatment)]";
      "patient[treatment/medication = 'autism']";
      "patient[parent]/treatment";
      "patient[parent/patient/treatment/medication = 'headache']";
      "//treatment[medication = 'flu']";
      "patient[treatment and parent]";
    ]

let test_rewrite_view_suite () =
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  List.iter
    (fun (name, q) -> check_rewrite ~name v doc q)
    Queries.view_suite

let test_rewrite_hidden_tags_empty () =
  (* Queries naming hidden types must return nothing — the security
     guarantee as seen from the query side. *)
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  List.iter
    (fun q ->
      Alcotest.(check (list int)) (q ^ " empty") []
        (mfa_answers v doc (parse q)))
    [ "patient/pname"; "//pname"; "//visit"; "//test"; "patient/visit/date" ]

let test_rewrite_answers_never_hidden () =
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  List.iter
    (fun q ->
      List.iter
        (fun d ->
          let tag = Tree.name doc d in
          Alcotest.(check bool)
            (Printf.sprintf "%s exposed %s" q tag)
            false
            (List.mem tag [ "pname"; "visit"; "date"; "test" ]))
        (mfa_answers v doc (parse q)))
    [ "//*"; "//*/*"; "(*)*" ]

(* --- Bib view ------------------------------------------------------------ *)

let test_rewrite_bib () =
  let v = Derive.derive Bib.policy in
  let doc = Bib.generate ~seed:17 ~n_books:5 ~section_depth:3 () in
  List.iter
    (fun q -> check_rewrite ~name:"bib" v doc q)
    [
      "book/comment";
      "book/section";
      "book/section/section/para";
      "//para";
      "book[comment]/title";
      "//section[para and not(section)]";
      "book/title/text()";
    ]

(* --- Sizes: linear vs exponential (the E5 claim, statically) -------------- *)

let test_mfa_linear_expr_grows () =
  let v = Lazy.force view in
  (* queries of growing size: chains of patient/parent steps with branches *)
  let rec build k =
    if k = 0 then parse "treatment/medication"
    else
      Ast.seq (Ast.Tag "patient")
        (Ast.filter (Ast.Tag "parent")
           (Ast.Exists (Ast.Union (Ast.Tag "patient", Ast.Wildcard)))
         |> fun step -> Ast.seq step (build (k - 1)))
  in
  let sizes =
    List.map
      (fun k ->
        let q = build k in
        let mfa = Rewriter.rewrite v q in
        (Ast.size q, Mfa.size mfa))
      [ 1; 2; 4; 8 ]
  in
  (* MFA growth should be essentially proportional to query growth. *)
  let ratios = List.map (fun (a, m) -> float_of_int m /. float_of_int a) sizes in
  let min_r = List.fold_left min infinity ratios
  and max_r = List.fold_left max 0. ratios in
  Alcotest.(check bool)
    (Printf.sprintf "mfa ratio stable (%.1f..%.1f)" min_r max_r)
    true
    (max_r /. min_r < 2.0)

(* A view whose type graph branches and recombines: a -> {b, c} -> a.
   Unmerged per-path expressions double at every (b | c) step, while the
   MFA (which shares by type) stays linear — the paper's E5 contrast. *)
let branching_view =
  lazy
    (let dtd =
       Dtd.create ~root:"r"
         [
           ("r", Dtd.Children (Dtd.Star (Dtd.Name "a")));
           ( "a",
             Dtd.Children
               (Dtd.Seq (Dtd.Star (Dtd.Name "b"), Dtd.Star (Dtd.Name "c"))) );
           ("b", Dtd.Children (Dtd.Star (Dtd.Name "a")));
           ("c", Dtd.Children (Dtd.Star (Dtd.Name "a")));
         ]
     in
     Derive.derive (Smoqe_security.Policy.create dtd []))

let branching_query k =
  let step = Ast.seq (Ast.Tag "a") (Ast.Union (Ast.Tag "b", Ast.Tag "c")) in
  let rec chain k = if k = 1 then step else Ast.seq step (chain (k - 1)) in
  chain k

let test_expr_rewriter_can_blow_up () =
  let v = Lazy.force branching_view in
  (* Exponential: doubling the chain length must far more than double the
     expression, and a modest cap must be hit at depth 16. *)
  let size k =
    snd (Expr_rewriter.rewrite_sized ~max_size:1e7 v (branching_query k))
  in
  let s4 = size 4 and s8 = size 8 in
  Alcotest.(check bool)
    (Printf.sprintf "doubling blows up (%.0f -> %.0f)" s4 s8)
    true
    (s8 > 8. *. s4);
  (match Expr_rewriter.rewrite ~max_size:20_000. v (branching_query 16) with
  | exception Expr_rewriter.Too_large _ -> ()
  | e ->
    Alcotest.fail
      (Printf.sprintf "expected blow-up, got size %d" (Ast.size e)));
  (* The MFA for the same query stays linear. *)
  let m8 = Mfa.size (Rewriter.rewrite v (branching_query 8)) in
  let m16 = Mfa.size (Rewriter.rewrite v (branching_query 16)) in
  Alcotest.(check bool)
    (Printf.sprintf "mfa linear (%d -> %d)" m8 m16)
    true
    (m16 < 3 * m8)

(* --- Random property: rewriting = materialize-then-query ------------------ *)

let qcheck_cases = 150

let rewrite_case_ok seed =
  let dtd = Random_dtd.generate ~seed ~n_types:5 ~recursion:(seed mod 2 = 0) () in
  let policy = Random_dtd.random_policy ~seed:(seed * 3 + 1) dtd in
  match Derive.derive policy with
  | exception Derive.Unsupported _ -> true
  | view ->
    let doc =
      Docgen.generate ~seed:(seed * 5 + 2) ~max_depth:8 ~fanout:2 dtd
    in
    let tags = Dtd.element_names (Derive.view_dtd view) in
    let query =
      Random_dtd.random_query ~seed:(seed * 7 + 3) ~size:6 ~tags ()
    in
    let expected = Materialize.doc_answers view doc query in
    let got = mfa_answers view doc query in
    let expr_ok =
      match Expr_rewriter.rewrite ~max_size:50_000. view query with
      | e -> Semantics.answer_list doc e = expected
      | exception Expr_rewriter.Too_large _ -> true
    in
    got = expected && expr_ok

let prop_rewrite_equals_materialize =
  QCheck2.Test.make ~count:qcheck_cases
    ~name:"rewrite = materialize-then-query (random views)"
    ~print:string_of_int
    QCheck2.Gen.(int_bound 100_000)
    rewrite_case_ok

let qsuite = Qcheck_seed.to_alcotest [ prop_rewrite_equals_materialize ]

let () =
  Alcotest.run "smoqe_rewrite"
    [
      ( "hospital",
        [
          Alcotest.test_case "simple" `Quick test_rewrite_hospital_simple;
          Alcotest.test_case "recursive" `Quick test_rewrite_hospital_recursive;
          Alcotest.test_case "filters" `Quick test_rewrite_hospital_filters;
          Alcotest.test_case "view suite" `Quick test_rewrite_view_suite;
          Alcotest.test_case "hidden tags empty" `Quick
            test_rewrite_hidden_tags_empty;
          Alcotest.test_case "answers never hidden" `Quick
            test_rewrite_answers_never_hidden;
        ] );
      ("bib", [ Alcotest.test_case "queries" `Quick test_rewrite_bib ]);
      ( "sizes",
        [
          Alcotest.test_case "mfa linear" `Quick test_mfa_linear_expr_grows;
          Alcotest.test_case "expr blow-up" `Quick test_expr_rewriter_can_blow_up;
        ] );
      ("properties", qsuite);
    ]
