(* Tests for Regular XPath: Ast, Parser, Pretty, Semantics. *)

module Tree = Smoqe_xml.Tree
module Xml_parser = Smoqe_xml.Parser
module Ast = Smoqe_rxpath.Ast
module Parser = Smoqe_rxpath.Parser
module Pretty = Smoqe_rxpath.Pretty
module Semantics = Smoqe_rxpath.Semantics

let parse s =
  match Parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let path_testable =
  Alcotest.testable (fun ppf p -> Pretty.pp_path ppf p) Ast.equal

(* --- Parser ----------------------------------------------------------- *)

let test_parse_steps () =
  Alcotest.check path_testable "tag" (Ast.Tag "a") (parse "a");
  Alcotest.check path_testable "self" Ast.Self (parse ".");
  Alcotest.check path_testable "wildcard" Ast.Wildcard (parse "*");
  Alcotest.check path_testable "text" Ast.Text (parse "text()");
  Alcotest.check path_testable "text with spaces" Ast.Text (parse "text ( )")

let test_parse_seq_union () =
  Alcotest.check path_testable "seq"
    (Ast.Seq (Ast.Tag "a", Ast.Tag "b"))
    (parse "a/b");
  Alcotest.check path_testable "union"
    (Ast.Union (Ast.Tag "a", Ast.Tag "b"))
    (parse "a | b");
  (* '/' binds tighter than '|' *)
  Alcotest.check path_testable "precedence"
    (Ast.Union (Ast.Seq (Ast.Tag "a", Ast.Tag "b"), Ast.Tag "c"))
    (parse "a/b | c")

let test_parse_star () =
  Alcotest.check path_testable "kleene"
    (Ast.Star (Ast.Seq (Ast.Tag "parent", Ast.Tag "patient")))
    (parse "(parent/patient)*");
  Alcotest.check path_testable "plus"
    (Ast.Seq (Ast.Tag "a", Ast.Star (Ast.Tag "a")))
    (parse "(a)+");
  Alcotest.check path_testable "opt"
    (Ast.Union (Ast.Self, Ast.Tag "a"))
    (parse "(a)?")

let test_parse_descendant () =
  Alcotest.check path_testable "leading //"
    (Ast.Seq (Ast.Star Ast.Wildcard, Ast.Tag "a"))
    (parse "//a");
  Alcotest.check path_testable "infix //"
    (Ast.Seq (Ast.Tag "a", Ast.Seq (Ast.Star Ast.Wildcard, Ast.Tag "b")))
    (parse "a//b");
  Alcotest.check path_testable "leading / ignored" (Ast.Tag "a") (parse "/a")

let test_parse_qualifiers () =
  Alcotest.check path_testable "exists"
    (Ast.Filter (Ast.Tag "a", Ast.Exists (Ast.Tag "b")))
    (parse "a[b]");
  Alcotest.check path_testable "value eq"
    (Ast.Filter (Ast.Tag "a", Ast.Value_eq (Ast.Tag "b", "c")))
    (parse "a[b = 'c']");
  Alcotest.check path_testable "text eq"
    (Ast.Filter (Ast.Tag "a", Ast.Value_eq (Ast.Text, "x")))
    (parse "a[text() = \"x\"]");
  Alcotest.check path_testable "and/or/not"
    (Ast.Filter
       ( Ast.Tag "a",
         Ast.Or
           ( Ast.And (Ast.Exists (Ast.Tag "b"), Ast.Not (Ast.Exists (Ast.Tag "c"))),
             Ast.True ) ))
    (parse "a[b and not(c) or true()]");
  Alcotest.check path_testable "nested filter"
    (Ast.Filter
       ( Ast.Tag "a",
         Ast.Exists (Ast.Filter (Ast.Tag "b", Ast.Exists (Ast.Tag "c"))) ))
    (parse "a[b[c]]")

let test_parse_paren_qual_vs_path () =
  (* parenthesized path in qualifier *)
  Alcotest.check path_testable "path parens"
    (Ast.Filter
       ( Ast.Tag "a",
         Ast.Exists
           (Ast.Seq (Ast.Star (Ast.Seq (Ast.Tag "p", Ast.Tag "q")), Ast.Tag "v"))
       ))
    (parse "a[(p/q)*/v]");
  (* parenthesized qualifier *)
  Alcotest.check path_testable "qual parens"
    (Ast.Filter
       ( Ast.Tag "a",
         Ast.And
           ( Ast.Or (Ast.Exists (Ast.Tag "b"), Ast.Exists (Ast.Tag "c")),
             Ast.Exists (Ast.Tag "d") ) ))
    (parse "a[(b or c) and d]")

let test_parse_paper_q0 () =
  (* The paper's query Q0 (section 3, Rewriter). *)
  let q0 =
    "hospital/patient[(parent/patient)*/visit/treatment/test and \
     visit/treatment[medication/text()=\"headache\"]]/pname"
  in
  let p = parse q0 in
  (match p with
  | Ast.Seq (Ast.Tag "hospital", Ast.Seq (Ast.Filter (Ast.Tag "patient", _), Ast.Tag "pname")) -> ()
  | _ -> Alcotest.fail "unexpected shape for Q0");
  (* Round-trips through the printer. *)
  Alcotest.check path_testable "q0 print/parse" p
    (parse (Pretty.path_to_string p))

let test_parse_errors () =
  let expect_err s =
    match Parser.path_of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "no error for %S" s)
  in
  expect_err "";
  expect_err "a/";
  expect_err "a[";
  expect_err "a[b";
  expect_err "a]";
  expect_err "a*" (* Kleene star requires parentheses *);
  expect_err "a[b = c]" (* unquoted literal *);
  expect_err "a[b = 'c]" (* unterminated string *);
  expect_err "a b";
  expect_err "(a";
  expect_err "not(a)" (* qualifiers are not paths *)

let test_ast_size () =
  Alcotest.(check int) "step" 1 (Ast.size (Ast.Tag "a"));
  Alcotest.(check int) "q0 size" 27
    (Ast.size
       (parse
          "hospital/patient[(parent/patient)*/visit/treatment/test and \
           visit/treatment[medication/text()=\"headache\"]]/pname"))

let test_ast_tags () =
  Alcotest.(check (list string))
    "tags in order"
    [ "a"; "b"; "c" ]
    (Ast.tags (parse "a[b = 'x' and a]/c"))

let test_smart_constructors () =
  Alcotest.check path_testable "seq unit" (Ast.Tag "a")
    (Ast.seq Ast.Self (Ast.Tag "a"));
  Alcotest.check path_testable "star idempotent"
    (Ast.Star (Ast.Tag "a"))
    (Ast.star (Ast.star (Ast.Tag "a")));
  Alcotest.check path_testable "star self" Ast.Self (Ast.star Ast.Self);
  Alcotest.check path_testable "filter true" (Ast.Tag "a")
    (Ast.filter (Ast.Tag "a") Ast.True)

(* --- Semantics -------------------------------------------------------- *)

(* <r> <a id1> <b>x</b> <b>y</b> </a> <a id4?> ... construct via string *)
let doc =
  lazy
    (Xml_parser.tree_of_string
       "<r><a><b>x</b><b>y</b></a><a><c><a><b>z</b></a></c></a><d/></r>")

let answers s =
  let t = Lazy.force doc in
  Semantics.answer_list t (parse s)

let names_of ids =
  let t = Lazy.force doc in
  List.map (fun n -> Tree.name t n) ids

let test_sem_child () =
  Alcotest.(check (list string)) "r/a" [ "a"; "a" ] (names_of (answers "a"));
  Alcotest.(check (list string)) "wildcard" [ "a"; "a"; "d" ]
    (names_of (answers "*"));
  Alcotest.(check int) "a/b" 2 (List.length (answers "a/b"))

let test_sem_self_union () =
  Alcotest.(check int) "self is root" 1 (List.length (answers "."));
  Alcotest.(check (list string)) "union" [ "a"; "a"; "d" ]
    (names_of (answers "a | d"))

let test_sem_descendant () =
  (* //b finds all three b elements at any depth *)
  Alcotest.(check int) "//b" 3 (List.length (answers "//b"));
  Alcotest.(check int) "//a" 3 (List.length (answers "//a"));
  Alcotest.(check int) "a//b" 3 (List.length (answers "a//b"))

let test_sem_star () =
  (* (a/c)* from root: root itself, plus nothing (c under a only) —
     then /a: a children of root and of c. *)
  Alcotest.(check int) "(a/c)*/a" 3 (List.length (answers "(a/c)*/a"))

let test_sem_text () =
  Alcotest.(check int) "//text()" 3 (List.length (answers "//text()"));
  let t = Lazy.force doc in
  List.iter
    (fun n -> Alcotest.(check bool) "is text" true (Tree.is_text t n))
    (answers "//text()")

let test_sem_filter () =
  (* a[c] selects only the second a *)
  Alcotest.(check int) "a[c]" 1 (List.length (answers "a[c]"));
  Alcotest.(check int) "a[b]" 1 (List.length (answers "a[b]"));
  Alcotest.(check int) "a[b or c]" 2 (List.length (answers "a[b or c]"));
  Alcotest.(check int) "a[b and c]" 0 (List.length (answers "a[b and c]"));
  Alcotest.(check int) "a[not(b)]" 1 (List.length (answers "a[not(b)]"));
  Alcotest.(check int) "a[true()]" 2 (List.length (answers "a[true()]"))

let test_sem_value_eq () =
  Alcotest.(check int) "b='x'" 1 (List.length (answers "a[b = 'x']"));
  Alcotest.(check int) "b='zz'" 0 (List.length (answers "a[b = 'zz']"));
  Alcotest.(check int) "text eq" 1
    (List.length (answers "a/b[text() = 'y']"));
  (* value of an element = concatenation of immediate text children *)
  Alcotest.(check int) "deep" 1
    (List.length (answers "a/c/a[b = 'z']"))

let test_sem_empty_from_missing_tag () =
  Alcotest.(check int) "unknown tag" 0 (List.length (answers "zzz"))

let test_sem_hospital_q0 () =
  (* End-to-end: Q0 on a small hospital document. *)
  let t =
    Xml_parser.tree_of_string
      "<hospital>\
       <patient><pname>Ann</pname>\
       <visit><treatment><test>blood</test></treatment><date>1</date></visit>\
       <visit><treatment><medication>headache</medication></treatment><date>2</date></visit>\
       </patient>\
       <patient><pname>Bob</pname>\
       <visit><treatment><medication>headache</medication></treatment><date>3</date></visit>\
       </patient>\
       <patient><pname>Carol</pname>\
       <parent><patient><pname>Dan</pname>\
       <visit><treatment><test>xray</test></treatment><date>4</date></visit>\
       </patient></parent>\
       <visit><treatment><medication>headache</medication></treatment><date>5</date></visit>\
       </patient>\
       </hospital>"
  in
  let q0 =
    parse
      "hospital/patient[(parent/patient)*/visit/treatment/test and \
       visit/treatment[medication/text()=\"headache\"]]/pname"
  in
  (* Wait: queries are root-relative and the root IS hospital, so
     hospital/patient looks for hospital under hospital. The paper poses
     queries from a virtual root above the document root; our convention
     evaluates from the root node itself, so the correct phrasing drops the
     leading hospital step.  Check both behaviours. *)
  Alcotest.(check int) "hospital/... finds nothing from root" 0
    (List.length (Semantics.answer_list t q0));
  let q0' =
    parse
      "patient[(parent/patient)*/visit/treatment/test and \
       visit/treatment[medication/text()=\"headache\"]]/pname"
  in
  let names =
    List.map (fun n -> Tree.value t n) (Semantics.answer_list t q0')
  in
  (* Ann: has test directly (star = 0 iterations) and headache medication.
     Bob: headache but no test anywhere via (parent/patient)*. Carol: has
     headache, and via parent/patient reaches Dan who has a test. *)
  Alcotest.(check (list string)) "selected patients" [ "Ann"; "Carol" ] names

(* --- Pretty ------------------------------------------------------------ *)

let test_pretty_examples () =
  let cases =
    [
      "a/b | c";
      "(parent/patient)*/visit";
      "a[b = 'c' and not(d)]";
      "a[(b or c) and d]";
      "text()";
      ".";
      "(a | b)*";
    ]
  in
  List.iter
    (fun s ->
      let p = parse s in
      Alcotest.check path_testable
        (Printf.sprintf "roundtrip %s" s)
        p
        (parse (Pretty.path_to_string p)))
    cases

(* --- Property tests ---------------------------------------------------- *)

let tag_gen = QCheck2.Gen.oneofl [ "a"; "b"; "c"; "d" ]
let value_gen = QCheck2.Gen.oneofl [ "x"; "y"; "z" ]

let rec path_gen n =
  QCheck2.Gen.(
    if n = 0 then
      oneof
        [
          return Ast.Self;
          map (fun t -> Ast.Tag t) tag_gen;
          return Ast.Wildcard;
          return Ast.Text;
        ]
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
    if n = 0 then
      oneof
        [
          return Ast.True;
          map (fun p -> Ast.Exists p) (path_gen 0);
          map2 (fun p v -> Ast.Value_eq (p, v)) (path_gen 0) value_gen;
        ]
    else
      frequency
        [
          (2, map (fun p -> Ast.Exists p) (path_gen (n - 1)));
          (1, map2 (fun p v -> Ast.Value_eq (p, v)) (path_gen (n - 1)) value_gen);
          (1, map Ast.q_not (qual_gen (n - 1)));
          (1, map2 Ast.q_and (qual_gen (n / 2)) (qual_gen (n / 2)));
          (1, map2 Ast.q_or (qual_gen (n / 2)) (qual_gen (n / 2)));
        ])

let sized_path_gen = QCheck2.Gen.(sized_size (int_bound 8) path_gen)

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"print/parse roundtrip"
    ~print:Pretty.path_to_string sized_path_gen (fun p ->
      match Parser.path_of_string (Pretty.path_to_string p) with
      | Ok p' -> Ast.equal p p'
      | Error _ -> false)

(* Random small trees for semantic sanity properties. *)
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

let prop_union_commutes =
  QCheck2.Test.make ~count:200 ~name:"union commutes"
    QCheck2.Gen.(triple doc_gen (path_gen 3) (path_gen 3))
    (fun (t, a, b) ->
      Semantics.answer_list t (Ast.Union (a, b))
      = Semantics.answer_list t (Ast.Union (b, a)))

let prop_seq_associates =
  QCheck2.Test.make ~count:200 ~name:"composition associates"
    QCheck2.Gen.(quad doc_gen (path_gen 2) (path_gen 2) (path_gen 2))
    (fun (t, a, b, c) ->
      Semantics.answer_list t (Ast.Seq (Ast.Seq (a, b), c))
      = Semantics.answer_list t (Ast.Seq (a, Ast.Seq (b, c))))

let prop_star_unfolds =
  QCheck2.Test.make ~count:200 ~name:"(p)* = . | p/(p)*"
    QCheck2.Gen.(pair doc_gen (path_gen 3))
    (fun (t, p) ->
      Semantics.answer_list t (Ast.Star p)
      = Semantics.answer_list t
          (Ast.Union (Ast.Self, Ast.Seq (p, Ast.Star p))))

let prop_filter_subset =
  QCheck2.Test.make ~count:200 ~name:"p[q] answers are a subset of p"
    QCheck2.Gen.(triple doc_gen (path_gen 3) (qual_gen 3))
    (fun (t, p, q) ->
      let filtered = Semantics.answers t (Ast.Filter (p, q)) in
      let all = Semantics.answers t p in
      Semantics.Node_set.subset filtered all)

let prop_double_negation =
  QCheck2.Test.make ~count:200 ~name:"p[not(not(q))] = p[q]"
    QCheck2.Gen.(triple doc_gen (path_gen 3) (qual_gen 3))
    (fun (t, p, q) ->
      Semantics.answer_list t (Ast.Filter (p, Ast.Not (Ast.Not q)))
      = Semantics.answer_list t (Ast.Filter (p, q)))

let qsuite =
  Qcheck_seed.to_alcotest
    [
      prop_print_parse_roundtrip;
      prop_union_commutes;
      prop_seq_associates;
      prop_star_unfolds;
      prop_filter_subset;
      prop_double_negation;
    ]

let () =
  Alcotest.run "smoqe_rxpath"
    [
      ( "parser",
        [
          Alcotest.test_case "steps" `Quick test_parse_steps;
          Alcotest.test_case "seq and union" `Quick test_parse_seq_union;
          Alcotest.test_case "kleene star" `Quick test_parse_star;
          Alcotest.test_case "descendant sugar" `Quick test_parse_descendant;
          Alcotest.test_case "qualifiers" `Quick test_parse_qualifiers;
          Alcotest.test_case "paren disambiguation" `Quick
            test_parse_paren_qual_vs_path;
          Alcotest.test_case "paper Q0" `Quick test_parse_paper_q0;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "ast",
        [
          Alcotest.test_case "size" `Quick test_ast_size;
          Alcotest.test_case "tags" `Quick test_ast_tags;
          Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "child steps" `Quick test_sem_child;
          Alcotest.test_case "self and union" `Quick test_sem_self_union;
          Alcotest.test_case "descendant" `Quick test_sem_descendant;
          Alcotest.test_case "star" `Quick test_sem_star;
          Alcotest.test_case "text" `Quick test_sem_text;
          Alcotest.test_case "filters" `Quick test_sem_filter;
          Alcotest.test_case "value equality" `Quick test_sem_value_eq;
          Alcotest.test_case "missing tag" `Quick test_sem_empty_from_missing_tag;
          Alcotest.test_case "paper hospital Q0" `Quick test_sem_hospital_q0;
        ] );
      ( "pretty",
        [ Alcotest.test_case "examples roundtrip" `Quick test_pretty_examples ] );
      ("properties", qsuite);
    ]
