(* Tests for the HyPE evaluator: DOM and StAX modes against the reference
   semantics, Cans/conditions, stats, traces, and TAX pruning soundness. *)

module Tree = Smoqe_xml.Tree
module Xml_parser = Smoqe_xml.Parser
module Serializer = Smoqe_xml.Serializer
module Ast = Smoqe_rxpath.Ast
module Rx_parser = Smoqe_rxpath.Parser
module Pretty = Smoqe_rxpath.Pretty
module Semantics = Smoqe_rxpath.Semantics
module Compile = Smoqe_automata.Compile
module Conds = Smoqe_hype.Conds
module Cans = Smoqe_hype.Cans
module Trace = Smoqe_hype.Trace
module Stats = Smoqe_hype.Stats
module Eval_dom = Smoqe_hype.Eval_dom
module Eval_stax = Smoqe_hype.Eval_stax
module Tax = Smoqe_tax.Tax

let parse s =
  match Rx_parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let doc s = Xml_parser.tree_of_string s

let dom_answers ?tax t q = Eval_dom.eval ?tax t (parse q)
let oracle_answers t q = Semantics.answer_list t (parse q)

let check_against_oracle ?tax t q =
  Alcotest.(check (list int))
    (Printf.sprintf "dom vs oracle: %s" q)
    (oracle_answers t q) (dom_answers ?tax t q);
  let mfa = Compile.compile (parse q) in
  let stax = Eval_stax.run_slots mfa (Eval_stax.Tree t) in
  Alcotest.(check (list int))
    (Printf.sprintf "stax vs oracle: %s" q)
    (oracle_answers t q) stax.Eval_stax.by_query.(0)

(* --- Conds -------------------------------------------------------------- *)

let test_conds_set_ops () =
  let s = Conds.add (1, 5) (Conds.add (0, 3) (Conds.add (1, 5) Conds.empty)) in
  Alcotest.(check int) "dedup" 2 (List.length (Conds.to_list s));
  Alcotest.(check (list (pair int int))) "sorted" [ (0, 3); (1, 5) ]
    (Conds.to_list s)

let test_cans () =
  let c = Cans.create () in
  Cans.add c ~node:4 (Conds.add (0, 2) Conds.empty);
  Cans.add c ~node:2 Conds.empty;
  Cans.add c ~node:4 (Conds.add (1, 3) Conds.empty);
  Alcotest.(check int) "three entries" 3 (Cans.size c);
  let answers = Cans.resolve c ~lookup:(fun (q, _) -> q = 1) in
  Alcotest.(check (list int)) "resolved in doc order" [ 2; 4 ] answers;
  (* an unconditional entry plus a failing conditional one: still answers *)
  let answers = Cans.resolve c ~lookup:(fun _ -> false) in
  Alcotest.(check (list int)) "unconditional survives" [ 2 ] answers

(* --- DOM evaluation ------------------------------------------------------ *)

let hospital =
  lazy
    (doc
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
        </hospital>")

let q0' =
  "patient[(parent/patient)*/visit/treatment/test and \
   visit/treatment[medication/text()=\"headache\"]]/pname"

let test_dom_simple_paths () =
  let t = Lazy.force hospital in
  List.iter
    (fun q -> check_against_oracle t q)
    [
      "patient";
      "patient/pname";
      "*";
      ".";
      "//pname";
      "//text()";
      "patient/visit/treatment/medication";
      "(patient/parent)*/patient";
      "patient | patient/pname";
    ]

let test_dom_filters () =
  let t = Lazy.force hospital in
  List.iter
    (fun q -> check_against_oracle t q)
    [
      "patient[visit]";
      "patient[parent]/pname";
      "patient[visit/treatment/medication = 'headache']/pname";
      "patient[not(parent)]/pname";
      "patient[visit and parent]";
      "patient[visit or parent]";
      "patient[visit[treatment[test]]]/pname";
      "patient[pname = 'Bob']";
      "patient[pname = 'Nobody']";
      q0';
    ]

let test_dom_q0_names () =
  let t = Lazy.force hospital in
  let names = List.map (Tree.value t) (dom_answers t q0') in
  Alcotest.(check (list string)) "Q0 picks Ann and Carol" [ "Ann"; "Carol" ]
    names

let test_dom_root_answer () =
  let t = Lazy.force hospital in
  Alcotest.(check (list int)) "self selects root" [ 0 ] (dom_answers t ".");
  check_against_oracle t ".[patient]";
  check_against_oracle t ".[zebra]"

let test_dom_value_on_element () =
  (* Element value = concatenation of immediate text children. *)
  let t = doc "<r><a>he<b>IGNORED</b>llo</a><a>other</a></r>" in
  check_against_oracle t "a[. = 'hello']";
  Alcotest.(check int) "concat value matched" 1
    (List.length (dom_answers t "a[. = 'hello']"))

let test_dom_star_depth () =
  (* Deep recursion through (a)*. *)
  let deep = Buffer.create 256 in
  for _ = 1 to 30 do Buffer.add_string deep "<a>" done;
  Buffer.add_string deep "<b>leaf</b>";
  for _ = 1 to 30 do Buffer.add_string deep "</a>" done;
  let t = doc ("<r>" ^ Buffer.contents deep ^ "</r>") in
  check_against_oracle t "(a)*/b";
  check_against_oracle t "(a)+/b";
  Alcotest.(check int) "one leaf" 1 (List.length (dom_answers t "(a)*/b"))

let test_dom_condition_chains () =
  (* Qualifiers on the path BEFORE the answer: conditions must defer. *)
  let t =
    doc
      "<r><x><mark/><y><z>hit</z></y></x><x><y><z>miss</z></y></x></r>"
  in
  check_against_oracle t "x[mark]/y/z";
  Alcotest.(check int) "one hit" 1 (List.length (dom_answers t "x[mark]/y/z"))

let test_dom_condition_in_star () =
  (* Condition checked repeatedly inside a Kleene loop. *)
  let t =
    doc
      "<r><a><ok/><a><ok/><b>deep</b></a></a><a><a><b>blocked</b></a></a></r>"
  in
  check_against_oracle t "(a[ok])*/b"

let test_dom_negation_of_deep () =
  let t = Lazy.force hospital in
  check_against_oracle t "patient[not(visit/treatment/test)]/pname";
  check_against_oracle t
    "patient[not((parent/patient)*/visit/treatment/test)]/pname"

let test_stax_matches_dom () =
  let t = Lazy.force hospital in
  let queries =
    [ q0'; "//pname"; "patient[visit]"; "(patient/parent)*/patient/pname" ]
  in
  List.iter
    (fun q ->
      let mfa = Compile.compile (parse q) in
      let stax = Eval_stax.run_slots mfa (Eval_stax.Tree t) in
      Alcotest.(check (list int)) q (dom_answers t q)
        stax.Eval_stax.by_query.(0);
      Alcotest.(check int)
        (q ^ " node count") (Tree.n_nodes t) stax.Eval_stax.m_n_nodes)
    queries

let test_stax_from_string () =
  let result =
    Eval_stax.eval_string (parse "a/b[text() = 'x']")
      "<r><a><b>x</b><b>y</b></a></r>"
  in
  Alcotest.(check int) "one answer" 1 (List.length result.Eval_stax.answers)

let test_stax_capture () =
  (* Captured fragments equal the DOM serialization of the answers. *)
  let t = Lazy.force hospital in
  List.iter
    (fun q ->
      let mfa = Compile.compile (parse q) in
      let r = Eval_stax.run_slots ~capture:true mfa (Eval_stax.Tree t) in
      Alcotest.(check int) (q ^ " captured all answers")
        (List.length r.Eval_stax.by_query.(0))
        (List.length r.Eval_stax.by_query_captured.(0));
      List.iter
        (fun (n, fragment) ->
          let expected =
            if Tree.is_text t n then
              Serializer.escape_text (Tree.text_content t n)
            else Serializer.subtree_to_string ~indent:false t n
          in
          Alcotest.(check string) (Printf.sprintf "%s node %d" q n) expected
            fragment)
        r.Eval_stax.by_query_captured.(0))
    [ "patient"; "patient/pname"; "//medication/text()"; q0';
      "patient[parent]" (* nested candidate inside another candidate *) ]

let test_stax_capture_off_by_default () =
  let t = Lazy.force hospital in
  let mfa = Compile.compile (parse "patient") in
  let r = Eval_stax.run_slots mfa (Eval_stax.Tree t) in
  Alcotest.(check (list (pair int string))) "no captures" []
    r.Eval_stax.by_query_captured.(0)

let test_stax_single_pass_stats () =
  let t = Lazy.force hospital in
  let mfa = Compile.compile (parse q0') in
  let r = Eval_stax.run_slots mfa (Eval_stax.Tree t) in
  Alcotest.(check int) "one pass" 1
    r.Eval_stax.m_stats.Stats.passes_over_data

(* --- Skipping and TAX ----------------------------------------------------- *)

let skewed_doc () =
  (* One relevant branch, many irrelevant ones. *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<r><target><leaf>yes</leaf></target>";
  for i = 1 to 50 do
    Buffer.add_string buf
      (Printf.sprintf "<junk><j1><j2>%d</j2></j1></junk>" i)
  done;
  Buffer.add_string buf "</r>";
  doc (Buffer.contents buf)

let test_dead_skipping () =
  let t = skewed_doc () in
  let mfa = Compile.compile (parse "target/leaf") in
  let r = Eval_dom.run mfa t in
  Alcotest.(check (list int)) "answers" (oracle_answers t "target/leaf")
    r.Eval_dom.answers;
  (* junk subtrees are entered once (to learn they are dead) but their
     insides are skipped *)
  Alcotest.(check bool) "skipped most of the document" true
    (r.Eval_dom.stats.Stats.nodes_skipped_dead > 100)

let test_tax_pruning_effect () =
  let t = skewed_doc () in
  let tax = Tax.build t in
  (* //leaf: without TAX the wildcard closure descends everywhere; with TAX
     the junk subtrees (no leaf below) are pruned. *)
  let mfa = Compile.compile (parse "//leaf") in
  let without = Eval_dom.run mfa t in
  let mfa2 = Compile.compile (parse "//leaf") in
  let with_tax = Eval_dom.run ~tax ~prune_threshold:0 mfa2 t in
  Alcotest.(check (list int)) "same answers" without.Eval_dom.answers
    with_tax.Eval_dom.answers;
  Alcotest.(check bool) "tax pruned subtrees" true
    (with_tax.Eval_dom.stats.Stats.nodes_pruned_tax > 0);
  Alcotest.(check bool) "tax reduced work" true
    (with_tax.Eval_dom.stats.Stats.nodes_alive
    < without.Eval_dom.stats.Stats.nodes_alive)

let test_cans_small () =
  let t = skewed_doc () in
  let mfa = Compile.compile (parse "target/leaf") in
  let r = Eval_dom.run mfa t in
  Alcotest.(check bool) "cans much smaller than doc" true
    (r.Eval_dom.cans_size * 10 < Tree.n_nodes t)

let test_trace_marks () =
  let t = doc "<r><a><b>x</b></a><c/></r>" in
  let trace = Trace.create () in
  let mfa = Compile.compile (parse "a/b") in
  let r = Eval_dom.run ~trace mfa t in
  Alcotest.(check int) "one answer" 1 (List.length r.Eval_dom.answers);
  let b = List.hd r.Eval_dom.answers in
  Alcotest.(check bool) "answer marked" true (Trace.marked trace b Trace.Answer);
  Alcotest.(check bool) "answer was in cans" true
    (Trace.marked trace b Trace.In_cans);
  Alcotest.(check bool) "root visited" true (Trace.marked trace 0 Trace.Visited);
  (* c matched nothing *)
  let c = List.nth (Tree.children t 0) 1 in
  Alcotest.(check bool) "c dead" true (Trace.marked trace c Trace.Dead);
  let rendering = Trace.render trace t in
  Alcotest.(check bool) "render nonempty" true (String.length rendering > 0)

(* --- Engine driver contract ------------------------------------------------ *)

module Engine = Smoqe_hype.Engine

let test_engine_contract_errors () =
  let mfa = Compile.compile (parse "a") in
  (* leave without enter *)
  let e = Engine.create mfa in
  (try
     Engine.leave e;
     Alcotest.fail "leave without enter accepted"
   with Engine.Driver_error _ -> ());
  (* finish with open nodes *)
  let e = Engine.create mfa in
  ignore (Engine.enter e ~id:0 ~kind:(Engine.El "r"));
  (try
     ignore (Engine.finish e);
     Alcotest.fail "finish with open nodes accepted"
   with Engine.Driver_error _ -> ());
  (* enter after finish *)
  let e = Engine.create mfa in
  ignore (Engine.enter e ~id:0 ~kind:(Engine.El "r"));
  Engine.leave e;
  ignore (Engine.finish e);
  (try
     ignore (Engine.enter e ~id:1 ~kind:(Engine.El "r"));
     Alcotest.fail "enter after finish accepted"
   with Engine.Driver_error _ -> ());
  (* finish twice *)
  let e = Engine.create mfa in
  ignore (Engine.enter e ~id:0 ~kind:(Engine.El "r"));
  Engine.leave e;
  ignore (Engine.finish e);
  try
    ignore (Engine.finish e);
    Alcotest.fail "finish twice accepted"
  with Engine.Driver_error _ -> ()

let test_engine_manual_drive () =
  (* Drive the engine by hand: <r><a/></r> with query "a". *)
  let mfa = Compile.compile (parse "a") in
  let e = Engine.create mfa in
  (match Engine.enter e ~id:0 ~kind:(Engine.El "r") with
  | Engine.Alive -> ()
  | Engine.Dead -> Alcotest.fail "root dead");
  (match Engine.enter e ~id:1 ~kind:(Engine.El "a") with
  | Engine.Alive ->
    Alcotest.(check bool) "a is a candidate" true (Engine.entered_candidate e);
    Engine.leave e
  | Engine.Dead -> Alcotest.fail "a dead");
  (match Engine.enter e ~id:2 ~kind:(Engine.El "b") with
  | Engine.Dead -> () (* no leave for dead enters *)
  | Engine.Alive -> Alcotest.fail "b alive");
  Engine.leave e;
  Alcotest.(check (list int)) "answer" [ 1 ] (Engine.finish e).(0)

let test_deep_document_recursion () =
  (* 2000 levels of nesting through parser, evaluator and serializer. *)
  let depth = 2000 in
  let buf = Buffer.create (depth * 7) in
  for _ = 1 to depth do Buffer.add_string buf "<a>" done;
  Buffer.add_string buf "<leaf/>";
  for _ = 1 to depth do Buffer.add_string buf "</a>" done;
  let t = doc (Buffer.contents buf) in
  Alcotest.(check int) "nodes" (depth + 1) (Tree.n_nodes t);
  Alcotest.(check int) "one leaf" 1 (List.length (dom_answers t "(a)*/leaf"));
  let mfa = Compile.compile (parse "//leaf") in
  let r = Eval_stax.run_slots mfa (Eval_stax.Tree t) in
  Alcotest.(check int) "stax deep" 1 (List.length r.Eval_stax.by_query.(0))

(* --- Property tests: HyPE = oracle --------------------------------------- *)

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

let prop_dom_equals_oracle =
  QCheck2.Test.make ~count:1000 ~name:"HyPE DOM = oracle" ~print:print_case
    case_gen (fun (t, p) ->
      let mfa = Compile.compile p in
      (Eval_dom.run mfa t).Eval_dom.answers = Semantics.answer_list t p)

let prop_stax_equals_oracle =
  QCheck2.Test.make ~count:1000 ~name:"HyPE StAX = oracle" ~print:print_case
    case_gen (fun (t, p) ->
      let mfa = Compile.compile p in
      (Eval_stax.run_slots mfa (Eval_stax.Tree t)).Eval_stax.by_query.(0)
      = Semantics.answer_list t p)

let prop_tax_equals_oracle =
  QCheck2.Test.make ~count:1000 ~name:"HyPE DOM with TAX = oracle"
    ~print:print_case case_gen (fun (t, p) ->
      let mfa = Compile.compile p in
      let tax = Tax.build t in
      (Eval_dom.run ~tax mfa t).Eval_dom.answers = Semantics.answer_list t p)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dom_equals_oracle; prop_stax_equals_oracle; prop_tax_equals_oracle ]

let () =
  Alcotest.run "smoqe_hype"
    [
      ( "conds",
        [
          Alcotest.test_case "set operations" `Quick test_conds_set_ops;
          Alcotest.test_case "cans" `Quick test_cans;
        ] );
      ( "dom",
        [
          Alcotest.test_case "simple paths" `Quick test_dom_simple_paths;
          Alcotest.test_case "filters" `Quick test_dom_filters;
          Alcotest.test_case "Q0 answer names" `Quick test_dom_q0_names;
          Alcotest.test_case "root answers" `Quick test_dom_root_answer;
          Alcotest.test_case "element value" `Quick test_dom_value_on_element;
          Alcotest.test_case "deep star" `Quick test_dom_star_depth;
          Alcotest.test_case "condition chains" `Quick test_dom_condition_chains;
          Alcotest.test_case "condition in star" `Quick
            test_dom_condition_in_star;
          Alcotest.test_case "negation" `Quick test_dom_negation_of_deep;
        ] );
      ( "stax",
        [
          Alcotest.test_case "matches dom" `Quick test_stax_matches_dom;
          Alcotest.test_case "from string" `Quick test_stax_from_string;
          Alcotest.test_case "capture" `Quick test_stax_capture;
          Alcotest.test_case "capture off" `Quick test_stax_capture_off_by_default;
          Alcotest.test_case "single pass" `Quick test_stax_single_pass_stats;
        ] );
      ( "engine contract",
        [
          Alcotest.test_case "driver errors" `Quick test_engine_contract_errors;
          Alcotest.test_case "manual drive" `Quick test_engine_manual_drive;
          Alcotest.test_case "deep documents" `Quick test_deep_document_recursion;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "dead skipping" `Quick test_dead_skipping;
          Alcotest.test_case "tax effect" `Quick test_tax_pruning_effect;
          Alcotest.test_case "cans small" `Quick test_cans_small;
          Alcotest.test_case "trace" `Quick test_trace_marks;
        ] );
      ("properties", qsuite);
    ]
