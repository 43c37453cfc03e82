(* The table layer in isolation: tree and stream specialization,
   wildcard/text columns, unseen-tag behavior, memo eviction under a tiny
   cap, and plan-riding invalidation through replace_document. *)

module Tree = Smoqe_xml.Tree
module Parser = Smoqe_xml.Parser
module Pull = Smoqe_xml.Pull
module Nfa = Smoqe_automata.Nfa
module Mfa = Smoqe_automata.Mfa
module Compile = Smoqe_automata.Compile
module Tables = Smoqe_automata.Tables
module Eval_dom = Smoqe_hype.Eval_dom
module Eval_stax = Smoqe_hype.Eval_stax
module Stats = Smoqe_hype.Stats
module Engine = Smoqe.Engine
module Rx_parser = Smoqe_rxpath.Parser

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let okr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Smoqe_robust.Error.to_string e)

let parse s = ok (Rx_parser.path_of_string s)
let compile s = Compile.compile (parse s)
let tree_of s = Parser.tree_of_string s

(* Raw matched targets of [tag] across all states, compared against a
   direct scan of the NFA's rows — the table must be a faithful cache. *)
let check_against_nfa ~msg tb tree =
  let nfa = Tables.nfa tb in
  for node = 0 to Tree.n_nodes tree - 1 do
    let tag = Tree.tag_id tree node in
    let is_element = Tree.is_element tree node in
    let name = Tree.name tree node in
    for s = 0 to nfa.Nfa.n_states - 1 do
      let expected =
        List.filter_map
          (fun (test, s') ->
            if Nfa.matches_name test ~is_element ~name then Some s' else None)
          nfa.Nfa.delta.(s)
        |> List.sort_uniq compare
      in
      let got =
        Array.to_list (Tables.targets tb s tag) |> List.sort_uniq compare
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: node %d state %d" msg node s)
        expected got
    done
  done

let test_frozen_faithful () =
  let doc =
    tree_of
      "<r><a><b>x</b></a><c><a/><b>y</b></c><unrelated><b/></unrelated></r>"
  in
  List.iter
    (fun q ->
      let mfa = compile q in
      let tb = Tables.of_tree mfa.Mfa.nfa doc in
      Alcotest.(check bool) (q ^ ": built for doc") true
        (Tables.built_for tb doc);
      check_against_nfa ~msg:q tb doc)
    [ "//b"; "a/b/text()"; "//a[b = 'x']/b"; "(a/b)* | c//b"; "//b/text()" ]

(* The wildcard column answers for tags no state names; the text column
   answers for text nodes. *)
let test_wildcard_and_text_rows () =
  let doc = tree_of "<r><a>hello</a><zzz/></r>" in
  let mfa = compile "//a/text()" in
  let tb = Tables.of_tree mfa.Mfa.nfa doc in
  let nfa = Tables.nfa tb in
  let zzz = Option.get (Tree.id_of_tag doc "zzz") in
  let a = Option.get (Tree.id_of_tag doc "a") in
  for s = 0 to nfa.Nfa.n_states - 1 do
    (* 'zzz' appears in no query test: its column is exactly the states
       reachable via Any_element — the wildcard row. *)
    Alcotest.(check (list int))
      (Printf.sprintf "state %d: zzz = wildcard semantics" s)
      (List.filter_map
         (fun (test, s') ->
           if Nfa.matches_name test ~is_element:true ~name:"zzz" then Some s'
           else None)
         nfa.Nfa.delta.(s)
      |> List.sort_uniq compare)
      (Array.to_list (Tables.targets tb s zzz) |> List.sort_uniq compare);
    (* the text column matches Text_node tests only *)
    Alcotest.(check (list int))
      (Printf.sprintf "state %d: text row" s)
      (List.filter_map
         (fun (test, s') ->
           if Nfa.matches_name test ~is_element:false ~name:"" then Some s'
           else None)
         nfa.Nfa.delta.(s)
      |> List.sort_uniq compare)
      (Array.to_list (Tables.targets tb s Tables.text_tag)
      |> List.sort_uniq compare);
    (* 'a' is named by the query: its column must include the Element
       matches, which the wildcard row alone would miss. *)
    ignore a
  done

let test_frozen_unknown_tag () =
  let doc = tree_of "<r><a/></r>" in
  let mfa = compile "//a" in
  let tb = Tables.of_tree mfa.Mfa.nfa doc in
  Alcotest.(check int) "unseen name is unknown_tag" Tables.unknown_tag
    (Tables.intern tb "never-in-doc");
  let nfa = Tables.nfa tb in
  for s = 0 to nfa.Nfa.n_states - 1 do
    (* unknown_tag resolves to the wildcard column *)
    Alcotest.(check (list int))
      (Printf.sprintf "state %d: unknown = wildcard" s)
      (List.filter_map
         (fun (test, s') ->
           if Nfa.matches_name test ~is_element:true ~name:"no-such" then
             Some s'
           else None)
         nfa.Nfa.delta.(s)
      |> List.sort_uniq compare)
      (Array.to_list (Tables.targets tb s Tables.unknown_tag)
      |> List.sort_uniq compare)
  done

(* Streaming tables: the automaton's names keep their own columns, and
   every other name interns to [unknown_tag], whose column still answers
   as [Nfa.matches_name] does. *)
let test_stream_names () =
  let mfa = compile "//a/b" in
  let tb = Tables.of_nfa mfa.Mfa.nfa in
  let a = Tables.intern tb "a" in
  let b = Tables.intern tb "b" in
  Alcotest.(check bool) "automaton names pre-interned" true
    (a >= 0 && b >= 0 && a <> b && a <> Tables.text_tag
   && b <> Tables.text_tag);
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " is unknown_tag") Tables.unknown_tag
        (Tables.intern tb name))
    [ "street0"; "street1"; "c" ];
  let nfa = Tables.nfa tb in
  for s = 0 to nfa.Nfa.n_states - 1 do
    List.iter
      (fun (tag, name) ->
        Alcotest.(check (list int))
          (Printf.sprintf "state %d tag %s" s name)
          (List.filter_map
             (fun (test, s') ->
               if Nfa.matches_name test ~is_element:true ~name then Some s'
               else None)
             nfa.Nfa.delta.(s)
          |> List.sort_uniq compare)
          (Array.to_list (Tables.targets tb s tag) |> List.sort_uniq compare))
      [ (a, "a"); (b, "b"); (Tables.intern tb "street0", "street0") ]
  done

(* A stream whose tags the automaton never mentions must not disturb the
   run: unseen tags take the wildcard column, and the answers match both
   the generic StAX engine and the DOM engine. *)
let test_stax_unseen_tags () =
  let xml =
    "<root><noise><a><b>1</b></a></noise><a><hum/><b>2</b></a><fizz><buzz><a>\
     <b>3</b></a></buzz></fizz></root>"
  in
  let mfa = compile "//a/b" in
  let with_tables =
    Eval_stax.run ~use_tables:true mfa (Pull.of_string xml)
  in
  let generic = Eval_stax.run ~use_tables:false mfa (Pull.of_string xml) in
  Alcotest.(check (list int))
    "stax tables = stax generic" generic.Eval_stax.answers
    with_tables.Eval_stax.answers;
  let doc = tree_of xml in
  let dom = Eval_dom.run mfa doc in
  Alcotest.(check (list int))
    "stax tables = dom" dom.Eval_dom.answers with_tables.Eval_stax.answers;
  Alcotest.(check bool) "memo was exercised" true
    (with_tables.Eval_stax.stats.Stats.memo_hits
     + with_tables.Eval_stax.stats.Stats.memo_misses
    > 0);
  Alcotest.(check int) "generic memo quiet" 0
    (generic.Eval_stax.stats.Stats.memo_hits
    + generic.Eval_stax.stats.Stats.memo_misses)

(* A tiny memo_cap forces registry flushes mid-run; answers must not
   change and the evictions must be counted. *)
let test_memo_eviction () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<r>";
  for i = 0 to 40 do
    Buffer.add_string buf (Printf.sprintf "<t%d><a><b>x</b></a></t%d>" i i)
  done;
  Buffer.add_string buf "</r>";
  let doc = tree_of (Buffer.contents buf) in
  let mfa = compile "//a/b | //b//a | (t1/a)*//b" in
  let reference = Eval_dom.run ~use_tables:false mfa doc in
  let tables = Tables.of_tree mfa.Mfa.nfa doc in
  let tiny = Eval_dom.run ~tables ~memo_cap:2 mfa doc in
  Alcotest.(check (list int))
    "answers survive flushes" reference.Eval_dom.answers tiny.Eval_dom.answers;
  Alcotest.(check bool) "evictions counted" true
    (tiny.Eval_dom.stats.Stats.memo_evictions > 0);
  let roomy = Eval_dom.run ~tables mfa doc in
  Alcotest.(check (list int))
    "roomy cap agrees" reference.Eval_dom.answers roomy.Eval_dom.answers;
  Alcotest.(check int) "roomy cap never flushes" 0
    (roomy.Eval_dom.stats.Stats.memo_evictions)

(* Plan-riding specialization: the second Dom query is a plan hit and must
   reuse the frozen table (no new specialization); replace_document drops
   the plan and its table, and answers track the new tree. *)
let test_replace_document_invalidation () =
  let doc_a = tree_of "<r><a><b>one</b></a><a><b>two</b></a></r>" in
  let engine = Engine.of_tree doc_a in
  let q = "//a/b" in
  let cold = okr (Engine.query_robust engine q) in
  Alcotest.(check int) "cold: 2 answers on A" 2 (List.length cold.Engine.answers);
  Alcotest.(check bool) "cold: memo active" true
    (cold.Engine.stats.Stats.memo_hits + cold.Engine.stats.Stats.memo_misses
    > 0);
  let warm = okr (Engine.query_robust engine q) in
  Alcotest.(check int) "warm: plan hit" 1
    warm.Engine.stats.Stats.plan_cache_hit;
  Alcotest.(check int) "warm: no new specialization" 0
    warm.Engine.stats.Stats.table_spec_us;
  (* a different tag universe: stale tag ids would misread this tree *)
  let doc_b =
    tree_of
      "<r><z0/><z1/><z2/><z3/><z4/><a><b>three</b></a><z5><a><b>four</b></a>\
       </z5></r>"
  in
  ok (Engine.replace_document engine doc_b);
  let after = okr (Engine.query_robust engine q) in
  Alcotest.(check int) "after replace: plans dropped" 0
    after.Engine.stats.Stats.plan_cache_hit;
  Alcotest.(check int) "after replace: 2 answers on B" 2
    (List.length after.Engine.answers);
  let generic =
    Eval_dom.run ~use_tables:false (compile q) (Engine.document engine)
  in
  Alcotest.(check (list int))
    "after replace: tables = generic" generic.Eval_dom.answers
    after.Engine.answers

(* use_tables:false, both drivers: identical answers, no table counters. *)
let test_disabled_counters_quiet () =
  let xml = "<r><a><b>x</b></a><c><b>y</b></c></r>" in
  let doc = tree_of xml in
  let mfa = compile "//b" in
  let quiet label (s : Stats.t) =
    Alcotest.(check int) (label ^ ": no memo traffic") 0
      (s.Stats.memo_hits + s.Stats.memo_misses);
    Alcotest.(check int) (label ^ ": no specialization") 0 s.Stats.table_spec_us
  in
  let on = Eval_dom.run mfa doc in
  let off = Eval_dom.run ~use_tables:false mfa doc in
  Alcotest.(check (list int)) "dom: same answers" on.Eval_dom.answers
    off.Eval_dom.answers;
  quiet "dom" off.Eval_dom.stats;
  let on = Eval_stax.run ~capture:true mfa (Pull.of_string xml) in
  let off =
    Eval_stax.run ~capture:true ~use_tables:false mfa (Pull.of_string xml)
  in
  Alcotest.(check (list (pair int string))) "stax: same fragments"
    on.Eval_stax.captured off.Eval_stax.captured;
  quiet "stax" off.Eval_stax.stats

let () =
  Alcotest.run "smoqe_tables"
    [
      ( "specialization",
        [
          Alcotest.test_case "frozen tables faithful to NFA" `Quick
            test_frozen_faithful;
          Alcotest.test_case "wildcard and text rows" `Quick
            test_wildcard_and_text_rows;
          Alcotest.test_case "frozen: unseen name is unknown_tag" `Quick
            test_frozen_unknown_tag;
          Alcotest.test_case "stream: unseen is unknown_tag" `Quick
            test_stream_names;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "stax: unseen stream tags" `Quick
            test_stax_unseen_tags;
          Alcotest.test_case "memo eviction under tiny cap" `Quick
            test_memo_eviction;
          Alcotest.test_case "replace_document invalidates tables" `Quick
            test_replace_document_invalidation;
          Alcotest.test_case "disabled: quiet counters" `Quick
            test_disabled_counters_quiet;
        ] );
    ]
