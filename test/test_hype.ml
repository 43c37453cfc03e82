(* Tests for the HyPE evaluator: DOM and StAX modes against the reference
   semantics, Cans/conditions, stats, traces, and TAX pruning soundness. *)

module Tree = Smoqe_xml.Tree
module Xml_parser = Smoqe_xml.Parser
module Serializer = Smoqe_xml.Serializer
module Pull = Smoqe_xml.Pull
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
module Shared = Smoqe_automata.Shared
module Tax = Smoqe_tax.Tax

let parse s =
  match Rx_parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let doc s = Xml_parser.tree_of_string s

(* StAX reads bytes: a held tree is streamed from its serialization. *)
let stream t = Pull.of_string (Serializer.to_string ~indent:false t)

let dom_answers ?tax t q = Eval_dom.eval ?tax t (parse q)
let oracle_answers t q = Semantics.answer_list t (parse q)

let check_against_oracle ?tax t q =
  Alcotest.(check (list int))
    (Printf.sprintf "dom vs oracle: %s" q)
    (oracle_answers t q) (dom_answers ?tax t q);
  let mfa = Compile.compile (parse q) in
  let stax = Eval_stax.run_slots (Shared.merge [| mfa |]) (stream t) in
  Alcotest.(check (list int))
    (Printf.sprintf "stax vs oracle: %s" q)
    (oracle_answers t q) stax.Eval_stax.by_query.(0)

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

(* --- Conds ------------------------------------------------------------ *)

(* A condition is a slot of the engine's condition table: a plain int. *)
let test_conds_set_ops () =
  let s = Conds.add 5 (Conds.add 3 (Conds.add 5 Conds.empty)) in
  Alcotest.(check int) "dedup" 2 (List.length (Conds.to_list s));
  Alcotest.(check (list int)) "sorted" [ 3; 5 ] (Conds.to_list s);
  Alcotest.(check int) "equal sets" 0
    (Conds.compare_set s (Conds.add 3 (Conds.add 5 Conds.empty)))

let test_cans () =
  let c = Cans.create () in
  Cans.add c ~node:4 (Conds.add 0 Conds.empty);
  Cans.add c ~node:2 Conds.empty;
  Cans.add c ~node:4 (Conds.add 1 Conds.empty);
  Alcotest.(check int) "three entries" 3 (Cans.size c);
  let answers = Cans.resolve c ~lookup:(fun slot -> slot = 1) in
  Alcotest.(check (list int)) "resolved in doc order" [ 2; 4 ] answers;
  (* an unconditional entry plus a failing conditional one: still answers *)
  let answers = Cans.resolve c ~lookup:(fun _ -> false) in
  Alcotest.(check (list int)) "unconditional survives" [ 2 ] answers

module Nfa = Smoqe_automata.Nfa
module Afa = Smoqe_automata.Afa
module Mfa = Smoqe_automata.Mfa
module Engine = Smoqe_hype.Engine

(* From the root, step to an [a] child, then fork into two runs that both
   check the one qualifier [b] at that [a] and go on to one selecting
   state: query [a[b]] twice over. *)
let same_qual_mfa () =
  let b = Mfa.create_builder () in
  let start = Mfa.fresh_state b in
  let at_a = Mfa.fresh_state b in
  let r1 = Mfa.fresh_state b in
  let r2 = Mfa.fresh_state b in
  let sel = Mfa.fresh_state b in
  let a0 = Mfa.fresh_state b in
  let a1 = Mfa.fresh_state b in
  Mfa.add_edge b a0 (Nfa.Element "b") a1;
  let atom = Mfa.add_atom b ~start:a0 ~value:None in
  Mfa.add_accept_atom b a1 atom;
  let q = Mfa.add_qual b (Afa.F_atom atom) in
  Mfa.add_edge b start (Nfa.Element "a") at_a;
  List.iter
    (fun r ->
      Mfa.add_eps b at_a r;
      Mfa.add_check b r q;
      Mfa.add_eps b r sel)
    [ r1; r2 ];
  Mfa.add_select b sel;
  Mfa.freeze b ~start

(* r0 a1 b2 c3 a4 c5 a6 b7 *)
let same_qual_doc = lazy (doc "<r><a><b/><c/></a><a><c/></a><a><b/></a></r>")

(* Two runs requesting the same qualifier at one node share its slot, so
   their condition sets compare equal and the closure keeps one item per
   [a]: three candidates, not six, on both engine paths. *)
let test_shared_slot () =
  let mfa = same_qual_mfa () in
  let t = Lazy.force same_qual_doc in
  List.iter
    (fun use_tables ->
      let r = Eval_dom.run ~use_tables mfa t in
      let what = if use_tables then "tables" else "generic" in
      Alcotest.(check (list int)) (what ^ ": answers") [ 1; 6 ] r.answers;
      Alcotest.(check int) (what ^ ": conditions") 6
        r.stats.Stats.conds_created;
      Alcotest.(check int) (what ^ ": slots") 3 r.stats.Stats.quals_resolved;
      Alcotest.(check int) (what ^ ": candidates") 3 r.stats.Stats.candidates)
    [ true; false ]

(* Drive an engine over a whole tree by hand, pruning [Dead] subtrees. *)
let drive e t =
  let rec go n =
    let kind =
      if Tree.is_text t n then
        let s, off, len = Tree.content_slice t n in
        Engine.Tx_sub (s, off, len)
      else Engine.El (Tree.name t n)
    in
    match Engine.enter e ~id:n ~kind with
    | Engine.Dead -> ()
    | Engine.Alive ->
      Tree.iter_children t n go;
      Engine.leave e
  in
  go Tree.root;
  Engine.finish e

(* A batch whose two owners assume the same qualifier at the same node:
   the merge makes it one qualifier, settled in one slot and read back for
   each owner's Cans. *)
let test_batch_shared_qualifier () =
  let sh =
    Shared.merge [| Compile.compile (parse "a[b]");
                    Compile.compile (parse "a[b]/c") |]
  in
  let t = Lazy.force same_qual_doc in
  let tables = Smoqe_automata.Tables.of_tree sh.Shared.mfa.Mfa.nfa t in
  List.iter
    (fun tables ->
      let e = Engine.create ?tables sh in
      let per = drive e t in
      Alcotest.(check (array (list int))) "per owner" [| [ 1; 6 ]; [ 3 ] |] per;
      Alcotest.(check int) "one slot per a" 3
        (Engine.stats e).Stats.quals_resolved)
    [ Some tables; None ];
  (* owners asking related questions each get their own answers *)
  let t = Lazy.force hospital in
  let queries =
    [ "patient[visit]/pname"; "patient[visit]"; "patient[not(visit)]/pname" ]
  in
  let sh = Shared.merge
      (Array.of_list (List.map (fun q -> Compile.compile (parse q)) queries))
  in
  List.iter
    (fun use_tables ->
      let m = Eval_dom.run_many ~use_tables sh t in
      List.iteri
        (fun i q ->
          Alcotest.(check (list int)) ("batch: " ^ q) (oracle_answers t q)
            m.Eval_dom.by_query.(i))
        queries)
    [ true; false ]

(* More than 256 slots: every column of the condition table grows, and a
   value published past the first capacity still reads back. *)
let test_slot_table_grows () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "<r>";
  for i = 0 to 599 do
    Buffer.add_string b (if i mod 3 = 0 then "<a><b/></a>" else "<a><c/></a>")
  done;
  Buffer.add_string b "</r>";
  let t = doc (Buffer.contents b) in
  let q = "a[b]" in
  check_against_oracle t q;
  let r = Eval_dom.run ~use_tables:false (Compile.compile (parse q)) t in
  Alcotest.(check (list int)) "generic" (oracle_answers t q) r.answers;
  Alcotest.(check bool) "more than 256 slots" true
    (r.stats.Stats.quals_resolved > 256)

(* --- DOM evaluation ------------------------------------------------------ *)


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
      let stax = Eval_stax.run_slots (Shared.merge [| mfa |]) (stream t) in
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
      let r =
        Eval_stax.run_slots ~capture:true (Shared.merge [| mfa |]) (stream t)
      in
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
  let r = Eval_stax.run_slots (Shared.merge [| mfa |]) (stream t) in
  Alcotest.(check (list (pair int string))) "no captures" []
    r.Eval_stax.by_query_captured.(0)

let test_stax_single_pass_stats () =
  let t = Lazy.force hospital in
  let mfa = Compile.compile (parse q0') in
  let r = Eval_stax.run_slots (Shared.merge [| mfa |]) (stream t) in
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

let test_engine_contract_errors () =
  let mfa = Compile.compile (parse "a") in
  (* leave without enter *)
  let e = Engine.create (Shared.merge [| mfa |]) in
  (try
     Engine.leave e;
     Alcotest.fail "leave without enter accepted"
   with Engine.Driver_error _ -> ());
  (* finish with open nodes *)
  let e = Engine.create (Shared.merge [| mfa |]) in
  ignore (Engine.enter e ~id:0 ~kind:(Engine.El "r"));
  (try
     ignore (Engine.finish e);
     Alcotest.fail "finish with open nodes accepted"
   with Engine.Driver_error _ -> ());
  (* enter after finish *)
  let e = Engine.create (Shared.merge [| mfa |]) in
  ignore (Engine.enter e ~id:0 ~kind:(Engine.El "r"));
  Engine.leave e;
  ignore (Engine.finish e);
  (try
     ignore (Engine.enter e ~id:1 ~kind:(Engine.El "r"));
     Alcotest.fail "enter after finish accepted"
   with Engine.Driver_error _ -> ());
  (* finish twice *)
  let e = Engine.create (Shared.merge [| mfa |]) in
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
  let e = Engine.create (Shared.merge [| mfa |]) in
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
  let r = Eval_stax.run_slots (Shared.merge [| mfa |]) (stream t) in
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
      (* [doc_gen] makes adjacent text siblings, which a parse merges: the
         oracle reads the tree of the very bytes StAX scans *)
      let bytes = Serializer.to_string ~indent:false t in
      let mfa = Compile.compile p in
      (Eval_stax.run_slots (Shared.merge [| mfa |]) (Pull.of_string bytes))
        .Eval_stax.by_query.(0)
      = Semantics.answer_list (Xml_parser.tree_of_string bytes) p)

let prop_tax_equals_oracle =
  QCheck2.Test.make ~count:1000 ~name:"HyPE DOM with TAX = oracle"
    ~print:print_case case_gen (fun (t, p) ->
      let mfa = Compile.compile p in
      let tax = Tax.build t in
      (Eval_dom.run ~tax mfa t).Eval_dom.answers = Semantics.answer_list t p)

let qsuite =
  Qcheck_seed.to_alcotest
    [ prop_dom_equals_oracle; prop_stax_equals_oracle; prop_tax_equals_oracle ]

let () =
  Alcotest.run "smoqe_hype"
    [
      ( "conds",
        [
          Alcotest.test_case "set operations" `Quick test_conds_set_ops;
          Alcotest.test_case "cans" `Quick test_cans;
          Alcotest.test_case "same qualifier shares a slot" `Quick
            test_shared_slot;
          Alcotest.test_case "batch owners share a slot" `Quick
            test_batch_shared_qualifier;
          Alcotest.test_case "slot table grows" `Quick test_slot_table_grows;
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
