(* The differential conformance battery: the serving engine (rewrite +
   HyPE, cache cold and warm, Dom and Stax) against the naive oracle
   (materialize the view, evaluate on the copy, map provenance back).
   The two paths share no evaluation code, so agreement is evidence. *)

module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Stats = Smoqe_hype.Stats
module Derive = Smoqe_security.Derive
module Materialize = Smoqe_security.Materialize
module Naive = Smoqe_baseline.Naive
module Hospital = Smoqe_workload.Hospital
module Bib = Smoqe_workload.Bib
module Queries = Smoqe_workload.Queries
module Random_dtd = Smoqe_workload.Random_dtd
module Docgen = Smoqe_workload.Docgen
module Dtd = Smoqe_xml.Dtd
module Tree = Smoqe_xml.Tree
module Serializer = Smoqe_xml.Serializer
module Rx_parser = Smoqe_rxpath.Parser
module Pretty = Smoqe_rxpath.Pretty
module Pool = Smoqe_exec.Pool
module Err = Smoqe_robust.Error

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let okr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Err.to_string e)

let parse s = ok (Rx_parser.path_of_string s)

(* Naive-on-the-materialized-view oracle: answers as document node ids. *)
let oracle view doc path =
  let m = Materialize.materialize view doc in
  (Naive.run m.Materialize.tree path).Naive.answers
  |> List.map (fun v -> m.Materialize.provenance.(v))
  |> List.sort_uniq compare

let visible_set view doc =
  let m = Materialize.materialize view doc in
  Array.fold_left
    (fun acc id -> List.cons id acc)
    [] m.Materialize.provenance

let modes = [ (Engine.Dom, "dom"); (Engine.Stax, "stax") ]

(* A query is a batch of one: slot 0 of [run_many_robust [q]] must equal
   [query_robust q] in answer ids, serialized fragments and every counter
   but [plan_cache_hit] ([table_spec_us], a wall-clock figure, is compared
   as spent or not).  Callers replay one request sequence on two twin
   engines, so cold meets cold and warm meets warm. *)
let stats_shape (s : Stats.t) =
  List.filter_map
    (fun (k, v) ->
      match k with
      | "plan_cache_hit" -> None
      | "table_spec_us" -> Some (k, min v 1)
      | _ -> Some (k, v))
    (Stats.to_assoc s)

let slot0 engine ~mode text =
  let results, _ =
    Engine.run_many_robust engine ~group:"members" ~mode [ text ]
  in
  Alcotest.(check int) "a batch of one has one slot" 1 (Array.length results);
  match results.(0) with
  | Ok o -> o
  | Error e -> Alcotest.failf "batch of one (%s): %s" text (Err.to_string e)

let check_batch_of_one label (single : Engine.outcome) (slot : Engine.outcome) =
  Alcotest.(check (list int)) (label "slot 0 answers") single.Engine.answers
    slot.Engine.answers;
  Alcotest.(check (list string)) (label "slot 0 xml") single.Engine.answer_xml
    slot.Engine.answer_xml;
  Alcotest.(check (list (pair string int))) (label "slot 0 stats")
    (stats_shape single.Engine.stats) (stats_shape slot.Engine.stats)

(* [query q] after [run_many [q]] is served the plan the batch compiled. *)
let check_shared_plan label engine ~mode text =
  Alcotest.(check int) (label "query after run_many hits") 1
    (okr (Engine.query_robust engine ~group:"members" ~mode text))
      .Engine.stats.Stats.plan_cache_hit

(* One workload: every query, both modes, cold then warm; the warm run
   must be a cache hit and byte-identical to the cold one. *)
let battery ~name ~dtd ~policy ~doc queries =
  let engine = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy engine ~group:"members" policy);
  let twin = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy twin ~group:"members" policy);
  let view =
    match Engine.view engine ~group:"members" with
    | Some v -> v
    | None -> Alcotest.fail "view not registered"
  in
  let visible = visible_set view doc in
  List.iter
    (fun (qname, text) ->
      let path = parse text in
      let expected = oracle view doc path in
      (* the two oracle spellings agree with each other too *)
      Alcotest.(check (list int))
        (Printf.sprintf "%s %s: naive oracle = doc_answers" name qname)
        (Materialize.doc_answers view doc path)
        expected;
      List.iter
        (fun (mode, mname) ->
          let label what =
            Printf.sprintf "%s %s (%s, %s)" name qname mname what
          in
          let run () =
            okr (Engine.query_robust engine ~group:"members" ~mode text)
          in
          let cold = run () in
          Alcotest.(check (list int)) (label "answers")
            expected
            (List.sort_uniq compare cold.Engine.answers);
          List.iter
            (fun id ->
              if not (List.mem id visible) then
                Alcotest.failf "%s: node %d is policy-hidden" (label "leak") id)
            cold.Engine.answers;
          let warm = run () in
          Alcotest.(check int) (label "warm hit") 1
            warm.Engine.stats.Stats.plan_cache_hit;
          Alcotest.(check (list int)) (label "warm answers") cold.Engine.answers
            warm.Engine.answers;
          Alcotest.(check (list string)) (label "warm xml") cold.Engine.answer_xml
            warm.Engine.answer_xml;
          check_batch_of_one (fun w -> label ("cold " ^ w)) cold
            (slot0 twin ~mode text);
          check_batch_of_one (fun w -> label ("warm " ^ w)) warm
            (slot0 twin ~mode text);
          check_shared_plan label twin ~mode text)
        modes)
    queries

let test_hospital () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  battery ~name:"hospital" ~dtd:Hospital.dtd ~policy:Hospital.policy ~doc
    (Queries.suite @ Queries.view_suite)

let test_bib () =
  let doc = Bib.generate ~seed:11 ~n_books:4 ~section_depth:3 () in
  battery ~name:"bib" ~dtd:Bib.dtd ~policy:Bib.policy ~doc Queries.bib_suite

(* Sessions take the same road as Engine.query_robust; spot-check the
   oracle holds through the login path too. *)
let test_session_oracle () =
  let doc = Hospital.generate ~seed:13 ~n_patients:3 ~recursion_depth:1 () in
  let engine = Engine.of_tree ~dtd:Hospital.dtd doc in
  ok (Engine.register_policy engine ~group:"members" Hospital.policy);
  let view = Option.get (Engine.view engine ~group:"members") in
  let session = ok (Session.login engine (Session.Member "members")) in
  List.iter
    (fun (qname, text) ->
      let outcome = okr (Session.run_robust session text) in
      Alcotest.(check (list int)) qname
        (oracle view doc (parse text))
        (List.sort_uniq compare outcome.Engine.answers))
    Queries.view_suite

(* --- Random property: Dom = Stax = oracle, warm = cold --------------------- *)

(* An answer's serialization, as the engine renders it. *)
let xml_of_node doc n =
  if Tree.is_text doc n then Serializer.escape_text (Tree.text_content doc n)
  else Serializer.subtree_to_string ~indent:false doc n

(* The same document served from its bytes, where StAX scans the parser
   cursor instead of walking the held tree.  The oracle reads this
   engine's own tree, so whitespace normalization cannot shift ids. *)
let check_bytes_stax seed ~dtd policy doc text =
  let engine = okr (Engine.of_string_robust ~dtd (Serializer.to_string doc)) in
  ok (Engine.register_policy engine ~group:"members" policy);
  let view = Option.get (Engine.view engine ~group:"members") in
  let bdoc = Engine.document engine in
  let expected = oracle view bdoc (parse text) in
  let stax =
    okr (Engine.query_robust engine ~group:"members" ~mode:Engine.Stax text)
  in
  let label w = Printf.sprintf "seed %d bytes stax: %s (%s)" seed w text in
  Alcotest.(check (list int)) (label "answers = oracle") expected
    (List.sort_uniq compare stax.Engine.answers);
  Alcotest.(check (list (pair int string))) (label "answer_xml = oracle")
    (List.map (fun n -> (n, xml_of_node bdoc n)) expected)
    (List.sort_uniq compare
       (List.combine stax.Engine.answers stax.Engine.answer_xml))

let property_case seed =
  let dtd = Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
      ~recursion:(seed mod 2 = 0) ()
  in
  let policy = Random_dtd.random_policy ~seed:(seed * 3 + 1) dtd in
  let doc =
    try Some (Docgen.generate ~seed:(seed * 5 + 2) ~max_depth:8 ~fanout:2 dtd)
    with Docgen.No_finite_expansion _ -> None
  in
  match doc with
  | None -> ()
  | Some doc ->
    let engine = Engine.of_tree ~dtd doc in
    (match Engine.register_policy engine ~group:"members" policy with
    | Error _ -> () (* derivation unsupported for this draw: skip *)
    | Ok () ->
      let view = Option.get (Engine.view engine ~group:"members") in
      let tags = Dtd.element_names (Derive.view_dtd view) in
      let query =
        Random_dtd.random_query ~seed:(seed * 7 + 3) ~size:6 ~tags ()
      in
      let text = Pretty.path_to_string query in
      let expected = oracle view doc query in
      let run mode =
        okr (Engine.query_robust engine ~group:"members" ~mode text)
      in
      let dom = run Engine.Dom in
      let stax = run Engine.Stax in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: dom = oracle (%s)" seed text)
        expected
        (List.sort_uniq compare dom.Engine.answers);
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: stax = dom (%s)" seed text)
        (List.sort_uniq compare dom.Engine.answers)
        (List.sort_uniq compare stax.Engine.answers);
      let warm = run Engine.Dom in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: warm is a hit" seed)
        1 warm.Engine.stats.Stats.plan_cache_hit;
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: warm xml identical" seed)
        dom.Engine.answer_xml warm.Engine.answer_xml;
      let warm_stax = run Engine.Stax in
      (* the same request sequence on a twin engine, as batches of one *)
      let twin = Engine.of_tree ~dtd doc in
      ok (Engine.register_policy twin ~group:"members" policy);
      List.iter
        (fun (mode, what, single) ->
          let label w = Printf.sprintf "seed %d %s: %s (%s)" seed what w text in
          check_batch_of_one label single (slot0 twin ~mode text))
        [
          (Engine.Dom, "dom cold", dom);
          (Engine.Stax, "stax cold", stax);
          (Engine.Dom, "dom warm", warm);
          (Engine.Stax, "stax warm", warm_stax);
        ];
      List.iter
        (fun (mode, mname) ->
          check_shared_plan
            (fun w -> Printf.sprintf "seed %d %s: %s" seed mname w)
            twin ~mode text)
        modes;
      check_bytes_stax seed ~dtd policy doc text)

let test_property () =
  for seed = 1 to 40 do
    property_case seed
  done

(* --- Parallel serving: Pool.run vs the sequential engine ------------------ *)

(* Tasks on 4 domains, outcomes in input order; a task that raised
   re-raises here and fails the test. *)
let pooled tasks =
  List.map (function Ok v -> v | Error e -> raise e) (Pool.run ~domains:4 tasks)

(* One task per query. *)
let pooled_queries engine ~group texts =
  pooled (List.map (fun t () -> Engine.query_robust engine ~group t) texts)

(* A batch split into [shards] contiguous chunks, one shared pass
   ([run_many_robust]) per task, the slots re-concatenated in input
   order. *)
let pooled_batch ~shards engine ~group texts =
  let texts = Array.of_list texts in
  let n = Array.length texts in
  let shards = max 1 (min shards n) in
  let base = n / shards and extra = n mod shards in
  List.init shards (fun k () ->
      let start = (k * base) + min k extra in
      let len = base + if k < extra then 1 else 0 in
      let chunk = Array.to_list (Array.sub texts start len) in
      fst (Engine.run_many_robust engine ~group chunk))
  |> pooled
  |> Array.concat

(* One workload on 4 domains.  The sequential reference runs on
   its own engine (sharing nothing with the pool run), then the parallel
   engine serves the batch twice: cold (every plan compiled under
   contention) and warm (every run a cache hit).  Both must be
   byte-identical to the reference — answer ids and serialized XML. *)
let parallel_battery ~name ~dtd ~policy ~doc queries =
  let ref_engine = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy ref_engine ~group:"members" policy);
  let reference =
    List.map
      (fun (_, text) ->
        (okr (Engine.query_robust ref_engine ~group:"members" text))
          .Engine.answer_xml)
      queries
  in
  let engine = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy engine ~group:"members" policy);
  let texts = List.map snd queries in
  let serve label ~expect_hits =
    let results = pooled_queries engine ~group:"members" texts in
    let agg = Stats.zero () in
    List.iter
      (function
        | Ok o -> Stats.merge_into ~into:agg o.Engine.stats
        | Error _ -> ())
      results;
    List.iteri
      (fun i r ->
        let qname = fst (List.nth queries i) in
        match r with
        | Error e ->
          Alcotest.failf "%s %s (%s): %s" name qname label (Err.to_string e)
        | Ok o ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s %s (%s): pool = sequential" name qname label)
            (List.nth reference i)
            o.Engine.answer_xml)
      results;
    if expect_hits then
      (* flags aggregate to counts: a fully warm batch hits every time *)
      Alcotest.(check int)
        (Printf.sprintf "%s (%s): every run a cache hit" name label)
        (List.length queries)
        agg.Stats.plan_cache_hit
  in
  serve "pool cold" ~expect_hits:false;
  serve "pool warm" ~expect_hits:true

let test_parallel_hospital () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  parallel_battery ~name:"hospital" ~dtd:Hospital.dtd ~policy:Hospital.policy
    ~doc
    (Queries.suite @ Queries.view_suite)

let test_parallel_bib () =
  let doc = Bib.generate ~seed:11 ~n_books:4 ~section_depth:3 () in
  parallel_battery ~name:"bib" ~dtd:Bib.dtd ~policy:Bib.policy ~doc
    Queries.bib_suite

(* Random DTD/policy draws, each served on 4 domains: whatever the draw,
   pooled answers must match inline answers on the same engine. *)
let test_parallel_property () =
  for seed = 1 to 20 do
    let dtd =
      Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
        ~recursion:(seed mod 2 = 0) ()
    in
    let policy = Random_dtd.random_policy ~seed:(seed * 3 + 1) dtd in
    match Docgen.generate ~seed:(seed * 5 + 2) ~max_depth:8 ~fanout:2 dtd with
    | exception Docgen.No_finite_expansion _ -> ()
    | doc ->
      let engine = Engine.of_tree ~dtd doc in
      (match Engine.register_policy engine ~group:"members" policy with
      | Error _ -> () (* derivation unsupported for this draw: skip *)
      | Ok () ->
        let view = Option.get (Engine.view engine ~group:"members") in
        let tags = Dtd.element_names (Derive.view_dtd view) in
        let texts =
          List.map
            (fun s ->
              Pretty.path_to_string
                (Random_dtd.random_query ~seed:s ~size:6 ~tags ()))
            [ (seed * 7) + 3; (seed * 11) + 5; (seed * 13) + 9 ]
        in
        let inline =
          List.map
            (fun t ->
              (okr (Engine.query_robust engine ~group:"members" t))
                .Engine.answer_xml)
            texts
        in
        let results = pooled_queries engine ~group:"members" texts in
        List.iteri
          (fun i r ->
            match r with
            | Error e ->
              Alcotest.failf "seed %d q%d: %s" seed i (Err.to_string e)
            | Ok o ->
              Alcotest.(check (list string))
                (Printf.sprintf "seed %d q%d: pool = inline" seed i)
                (List.nth inline i) o.Engine.answer_xml)
          results)
  done

(* --- Shared-automaton batch serving: run_many vs N sequential runs -------- *)

(* The full batch matrix: Dom/Stax x cold/warm.  The
   sequential reference runs on its own engine (sharing nothing with the
   batch engine), and the batch carries a duplicate of its first query so
   the dedup fan-out is exercised in every cell.  Byte-identical means
   answer ids AND serialized XML. *)
let batch_battery ~name ~dtd ~policy ~doc queries =
  let texts = List.map snd queries @ [ snd (List.hd queries) ] in
  let ref_engine = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy ref_engine ~group:"members" policy);
  List.iter
    (fun (mode, mname) ->
      let reference =
        List.map
          (fun text ->
            okr (Engine.query_robust ref_engine ~group:"members" ~mode text))
          texts
      in
      (* a fresh batch engine per cell, so cold really is cold *)
      let engine = Engine.of_tree ~dtd doc in
      ok (Engine.register_policy engine ~group:"members" policy);
      let serve what ~expect_hit =
        let label s = Printf.sprintf "%s (%s, %s): %s" name mname what s in
        let results, agg =
          Engine.run_many_robust engine ~group:"members" ~mode texts
        in
        Alcotest.(check int)
          (label "one slot per query")
          (List.length texts) (Array.length results);
        Array.iteri
          (fun i r ->
            match r with
            | Error e ->
              Alcotest.failf "%s: %s" (label "member") (Err.to_string e)
            | Ok o ->
              let re = List.nth reference i in
              Alcotest.(check (list int))
                (label (Printf.sprintf "answers %d" i))
                re.Engine.answers o.Engine.answers;
              Alcotest.(check (list string))
                (label (Printf.sprintf "xml %d" i))
                re.Engine.answer_xml o.Engine.answer_xml)
          results;
        (* the appended duplicate must have collapsed onto its twin's
           accept set: fewer merged queries than batch slots *)
        Alcotest.(check bool)
          (label "duplicate deduped")
          true
          (agg.Stats.batch_queries > 0
          && agg.Stats.batch_queries < List.length texts);
        Alcotest.(check int)
          (label "plan cache")
          (if expect_hit then 1 else 0)
          agg.Stats.plan_cache_hit
      in
      serve "cold" ~expect_hit:false;
      serve "warm" ~expect_hit:true)
    modes

let test_batch_hospital () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  batch_battery ~name:"hospital" ~dtd:Hospital.dtd ~policy:Hospital.policy ~doc
    (Queries.suite @ Queries.view_suite)

let test_batch_bib () =
  let doc = Bib.generate ~seed:11 ~n_books:4 ~section_depth:3 () in
  batch_battery ~name:"bib" ~dtd:Bib.dtd ~policy:Bib.policy ~doc
    Queries.bib_suite

(* The sharded form: one shared pass per task on 4 domains, results
   re-concatenated in input order. *)
let batch_pooled ~name ~dtd ~policy ~doc queries =
  let texts = List.map snd queries @ [ snd (List.hd queries) ] in
  let ref_engine = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy ref_engine ~group:"members" policy);
  let reference =
    List.map
      (fun text ->
        (okr (Engine.query_robust ref_engine ~group:"members" text))
          .Engine.answer_xml)
      texts
  in
  let engine = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy engine ~group:"members" policy);
  let results =
    pooled_batch ~shards:4 engine ~group:"members" texts
  in
  Array.iteri
    (fun i r ->
      match r with
      | Error e ->
        Alcotest.failf "%s pooled batch %d: %s" name i (Err.to_string e)
      | Ok o ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s pooled batch %d: sharded = sequential" name i)
          (List.nth reference i) o.Engine.answer_xml)
    results

let test_batch_pooled_hospital () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  batch_pooled ~name:"hospital" ~dtd:Hospital.dtd ~policy:Hospital.policy ~doc
    (Queries.suite @ Queries.view_suite)

let test_batch_pooled_bib () =
  let doc = Bib.generate ~seed:11 ~n_books:4 ~section_depth:3 () in
  batch_pooled ~name:"bib" ~dtd:Bib.dtd ~policy:Bib.policy ~doc
    Queries.bib_suite

(* A malformed member fails alone: every other slot is still served. *)
let test_batch_bad_member () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  let engine = Engine.of_tree ~dtd:Hospital.dtd doc in
  ok (Engine.register_policy engine ~group:"members" Hospital.policy);
  let good = List.map snd Queries.view_suite in
  let texts =
    match good with
    | g0 :: rest -> (g0 :: "[[[ not a query" :: rest) @ [ g0 ]
    | [] -> Alcotest.fail "empty view suite"
  in
  let reference =
    List.map
      (fun text ->
        match Engine.query_robust engine ~group:"members" text with
        | Ok o -> Some o.Engine.answer_xml
        | Error _ -> None)
      texts
  in
  let results, _ = Engine.run_many_robust engine ~group:"members" texts in
  Array.iteri
    (fun i r ->
      match (r, List.nth reference i) with
      | Error _, None -> ()
      | Ok o, Some xml ->
        Alcotest.(check (list string))
          (Printf.sprintf "surviving member %d" i)
          xml o.Engine.answer_xml
      | Ok _, None -> Alcotest.failf "member %d should have failed" i
      | Error e, Some _ ->
        Alcotest.failf "member %d failed: %s" i (Err.to_string e))
    results

(* Members that all dedupe to one key form a single query: no merge, the
   single-query plan (which [query] then hits), and every slot its own
   outcome with its own counters. *)
let test_batch_one_key () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  let engine = Engine.of_tree ~dtd:Hospital.dtd doc in
  ok (Engine.register_policy engine ~group:"members" Hospital.policy);
  let q = snd (List.hd Queries.view_suite) in
  let reference = okr (Engine.query_robust engine ~group:"members" q) in
  let fresh = Engine.of_tree ~dtd:Hospital.dtd doc in
  ok (Engine.register_policy fresh ~group:"members" Hospital.policy);
  let texts = [ q; "  " ^ q ^ " "; "(" ^ q ^ ")"; q ] in
  let results, agg = Engine.run_many_robust fresh ~group:"members" texts in
  Alcotest.(check int) "not merged" 0 agg.Stats.batch_queries;
  let outcomes =
    Array.mapi
      (fun i r ->
        match r with
        | Error e -> Alcotest.failf "slot %d: %s" i (Err.to_string e)
        | Ok o ->
          Alcotest.(check (list string))
            (Printf.sprintf "slot %d xml" i)
            reference.Engine.answer_xml o.Engine.answer_xml;
          Alcotest.(check int)
            (Printf.sprintf "slot %d answer count" i)
            (List.length reference.Engine.answers)
            o.Engine.stats.Stats.answers;
          o)
      results
  in
  Array.iteri
    (fun i o ->
      if i > 0 && o.Engine.stats == outcomes.(0).Engine.stats then
        Alcotest.failf "slot %d shares slot 0's counters" i)
    outcomes;
  Alcotest.(check int) "query hits the single-query plan" 1
    (okr (Engine.query_robust fresh ~group:"members" q))
      .Engine.stats.Stats.plan_cache_hit

(* One good member and one that fails to parse: the bad slot gets its
   own parse error, the good slots are served as a single query. *)
let test_batch_one_key_bad_member () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  let engine = Engine.of_tree ~dtd:Hospital.dtd doc in
  ok (Engine.register_policy engine ~group:"members" Hospital.policy);
  let q = snd (List.hd Queries.view_suite) in
  let reference = okr (Engine.query_robust engine ~group:"members" q) in
  let results, _ =
    Engine.run_many_robust engine ~group:"members"
      [ q; "[[[ not a query"; q ]
  in
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 1, Error (Err.Query_error _) -> ()
      | 1, _ -> Alcotest.fail "slot 1 should fail with its own parse error"
      | _, Ok o ->
        Alcotest.(check (list string))
          (Printf.sprintf "slot %d xml" i)
          reference.Engine.answer_xml o.Engine.answer_xml
      | _, Error e -> Alcotest.failf "slot %d failed: %s" i (Err.to_string e))
    results

(* Random DTD/policy draws: batch answers equal per-query answers on the
   same engine, Dom and Stax, with a duplicated member each draw. *)
let test_batch_property () =
  for seed = 1 to 20 do
    let dtd =
      Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
        ~recursion:(seed mod 2 = 0) ()
    in
    let policy = Random_dtd.random_policy ~seed:(seed * 3 + 1) dtd in
    match Docgen.generate ~seed:(seed * 5 + 2) ~max_depth:8 ~fanout:2 dtd with
    | exception Docgen.No_finite_expansion _ -> ()
    | doc ->
      let engine = Engine.of_tree ~dtd doc in
      (match Engine.register_policy engine ~group:"members" policy with
      | Error _ -> () (* derivation unsupported for this draw: skip *)
      | Ok () ->
        let view = Option.get (Engine.view engine ~group:"members") in
        let tags = Dtd.element_names (Derive.view_dtd view) in
        let base =
          List.map
            (fun s ->
              Pretty.path_to_string
                (Random_dtd.random_query ~seed:s ~size:6 ~tags ()))
            [ (seed * 7) + 3; (seed * 11) + 5; (seed * 13) + 9 ]
        in
        let texts = base @ [ List.hd base ] in
        List.iter
          (fun (mode, mname) ->
            let inline =
              List.map
                (fun t ->
                  (okr (Engine.query_robust engine ~group:"members" ~mode t))
                    .Engine.answer_xml)
                texts
            in
            let results, _ =
              Engine.run_many_robust engine ~group:"members" ~mode texts
            in
            Array.iteri
              (fun i r ->
                match r with
                | Error e ->
                  Alcotest.failf "seed %d %s q%d: %s" seed mname i
                    (Err.to_string e)
                | Ok o ->
                  Alcotest.(check (list string))
                    (Printf.sprintf "seed %d %s q%d: batch = inline" seed
                       mname i)
                    (List.nth inline i) o.Engine.answer_xml)
              results)
          modes)
  done

(* Spot-check the session road: run_many under a member login equals the
   member's own sequential runs. *)
let test_batch_session () =
  let doc = Hospital.generate ~seed:13 ~n_patients:3 ~recursion_depth:1 () in
  let engine = Engine.of_tree ~dtd:Hospital.dtd doc in
  ok (Engine.register_policy engine ~group:"members" Hospital.policy);
  let session = ok (Session.login engine (Session.Member "members")) in
  let texts = List.map snd Queries.view_suite in
  let reference =
    List.map
      (fun t -> (okr (Session.run_robust session t)).Engine.answer_xml)
      texts
  in
  let results, _ = Session.run_many_robust session texts in
  Array.iteri
    (fun i r ->
      match r with
      | Error e -> Alcotest.failf "session batch %d: %s" i (Err.to_string e)
      | Ok o ->
        Alcotest.(check (list string))
          (Printf.sprintf "session batch %d" i)
          (List.nth reference i) o.Engine.answer_xml)
    results

(* --- The write-path differential oracle ------------------------------------ *)

(* The invariant: after any legal update sequence, `update; query` is
   byte-identical to `re-materialize from scratch; query` — a fresh
   engine built from the updated tree, with the policy re-registered and
   the index rebuilt, answering with none of the incrementally
   maintained state (spliced TAX, surviving plans, frozen tables).  The
   two paths share the compiled automaton but none of the maintenance
   code, so agreement is evidence the splices are right. *)

module Update = Smoqe_update.Update
module Tax = Smoqe_tax.Tax

(* A random legal update sequence applied as admin: candidates are drawn
   from the live document each step (ids shift as edits land); a
   candidate the DTD rejects is skipped — identity replaces always
   apply, so the sequence never stalls.  Text rewrites change answer
   content, delete/duplicate change answer sets: the oracle is not
   comparing fixed points. *)
let random_updates ~seed ~steps engine =
  let rng = Random.State.make [| seed |] in
  let applied = ref 0 in
  for step = 1 to steps do
    let doc = Engine.document engine in
    let n_nodes = Tree.n_nodes doc in
    if n_nodes > 1 then begin
      let n = 1 + Random.State.int rng (n_nodes - 1) in
      let op =
        match Random.State.int rng 4 with
        | 0 -> Update.Replace (Update.By_id n, Tree.to_source doc n)
        | 1 when Tree.is_text doc n ->
          Update.Replace (Update.By_id n, Tree.T (Printf.sprintf "w%d" step))
        | 1 | 2 -> Update.Delete (Update.By_id n)
        | _ ->
          let p = Option.get (Tree.parent doc n) in
          Update.Insert
            { parent = Update.By_id p; before = Some n;
              source = Tree.to_source doc n }
      in
      match Engine.update_robust engine op with
      | Ok _ -> incr applied
      | Error (Err.Parse_error _) -> ()  (* the DTD rejected it: skip *)
      | Error e ->
        Alcotest.failf "seed %d step %d: %s" seed step (Err.to_string e)
    end
  done;
  if !applied = 0 then begin
    (* every random draw was DTD-rejected: an identity replace of the
       root always applies, so the sequence is never empty *)
    let doc = Engine.document engine in
    match
      Engine.update_robust engine
        (Update.Replace (Update.By_id Tree.root, Tree.to_source doc Tree.root))
    with
    | Ok _ -> incr applied
    | Error e -> Alcotest.failf "seed %d fallback: %s" seed (Err.to_string e)
  end;
  !applied

let write_battery ~name ~dtd ~policy ~doc ~seed queries =
  let engine = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy engine ~group:"members" policy);
  Engine.build_index engine;
  (* warm the cache first so the update sequence exercises scoped
     invalidation on live entries *)
  List.iter
    (fun (_, text) ->
      ignore (okr (Engine.query_robust engine ~group:"members" text)))
    queries;
  let applied = random_updates ~seed ~steps:12 engine in
  Alcotest.(check bool) (name ^ ": updates applied") true (applied > 0);
  let updated = Engine.document engine in
  (* reference: re-materialize everything from scratch *)
  let fresh = Engine.of_tree ~dtd updated in
  ok (Engine.register_policy fresh ~group:"members" policy);
  Engine.build_index fresh;
  Alcotest.(check bool) (name ^ ": spliced index = rebuilt index") true
    (Tax.equal
       (Option.get (Engine.index engine))
       (Option.get (Engine.index fresh)));
  List.iter
    (fun (mode, mname) ->
      List.iter
        (fun (qname, text) ->
          let label what =
            Printf.sprintf "%s %s (%s, %s)" name qname mname what
          in
          let reference =
            okr (Engine.query_robust fresh ~group:"members" ~mode text)
          in
          let serve () =
            okr (Engine.query_robust engine ~group:"members" ~mode text)
          in
          let cold = serve () in
          Alcotest.(check (list int)) (label "answers")
            reference.Engine.answers cold.Engine.answers;
          Alcotest.(check (list string)) (label "xml")
            reference.Engine.answer_xml cold.Engine.answer_xml;
          let warm = serve () in
          Alcotest.(check (list string)) (label "warm xml")
            reference.Engine.answer_xml warm.Engine.answer_xml)
        queries)
    modes;
  (* wholesale replace_document remains byte-identical to both *)
  let whole = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy whole ~group:"members" policy);
  ok (Engine.replace_document whole updated);
  Engine.build_index whole;
  List.iter
    (fun (qname, text) ->
      let reference = okr (Engine.query_robust fresh ~group:"members" text) in
      let o = okr (Engine.query_robust whole ~group:"members" text) in
      Alcotest.(check (list string))
        (Printf.sprintf "%s %s: replace_document agrees" name qname)
        reference.Engine.answer_xml o.Engine.answer_xml)
    queries;
  (* pooled at 4 domains: the updated engine serves the whole suite
     sharded, byte-identical to the fresh reference *)
  let texts = List.map snd queries in
  let reference =
    List.map
      (fun t ->
        (okr (Engine.query_robust fresh ~group:"members" t))
          .Engine.answer_xml)
      texts
  in
  let results =
    pooled_batch ~shards:4 engine ~group:"members" texts
  in
  Array.iteri
    (fun i r ->
      match r with
      | Error e ->
        Alcotest.failf "%s pooled %d: %s" name i (Err.to_string e)
      | Ok o ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s pooled %d: updated engine = fresh" name i)
          (List.nth reference i) o.Engine.answer_xml)
    results

let test_write_hospital () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  write_battery ~name:"hospital" ~dtd:Hospital.dtd ~policy:Hospital.policy
    ~doc ~seed:101
    (Queries.suite @ Queries.view_suite)

let test_write_bib () =
  let doc = Bib.generate ~seed:11 ~n_books:4 ~section_depth:3 () in
  write_battery ~name:"bib" ~dtd:Bib.dtd ~policy:Bib.policy ~doc ~seed:103
    Queries.bib_suite

(* Random DTD draws: a handful of updates, then Dom and Stax answers of
   the updated engine against the from-scratch rebuild. *)
let test_write_property () =
  for seed = 1 to 20 do
    let dtd =
      Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
        ~recursion:(seed mod 2 = 0) ()
    in
    let policy = Random_dtd.random_policy ~seed:(seed * 3 + 1) dtd in
    match Docgen.generate ~seed:(seed * 5 + 2) ~max_depth:8 ~fanout:2 dtd with
    | exception Docgen.No_finite_expansion _ -> ()
    | doc ->
      let engine = Engine.of_tree ~dtd doc in
      (match Engine.register_policy engine ~group:"members" policy with
      | Error _ -> ()  (* derivation unsupported for this draw: skip *)
      | Ok () ->
        Engine.build_index engine;
        let view = Option.get (Engine.view engine ~group:"members") in
        let tags = Dtd.element_names (Derive.view_dtd view) in
        let texts =
          List.map
            (fun s ->
              Pretty.path_to_string
                (Random_dtd.random_query ~seed:s ~size:6 ~tags ()))
            [ (seed * 7) + 3; (seed * 11) + 5; (seed * 13) + 9 ]
        in
        (* warm, update, compare against the from-scratch rebuild *)
        List.iter
          (fun t ->
            ignore (okr (Engine.query_robust engine ~group:"members" t)))
          texts;
        let applied = random_updates ~seed:(seed * 19 + 7) ~steps:6 engine in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: updates applied" seed)
          true (applied > 0);
        let fresh = Engine.of_tree ~dtd (Engine.document engine) in
        ok (Engine.register_policy fresh ~group:"members" policy);
        Engine.build_index fresh;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: spliced index = rebuilt" seed)
          true
          (Tax.equal
             (Option.get (Engine.index engine))
             (Option.get (Engine.index fresh)));
        List.iter
          (fun (mode, mname) ->
            List.iter
              (fun t ->
                let reference =
                  okr (Engine.query_robust fresh ~group:"members" ~mode t)
                in
                let o =
                  okr (Engine.query_robust engine ~group:"members" ~mode t)
                in
                Alcotest.(check (list string))
                  (Printf.sprintf "seed %d %s %s: updated = fresh" seed mname
                     t)
                  reference.Engine.answer_xml o.Engine.answer_xml)
              texts)
          modes)
  done

(* --- shared policy keys: shared artifacts vs per-group cold derivation --

   Groups ("tenants" below) sharing a canonical policy key serve through
   ONE derived view and one cached plan per query; the differential claim
   is that this sharing is invisible — every group's answers are
   byte-identical to a cold engine that derived the group's policy
   privately, and no group ever sees a node outside its own materialized
   view. *)

let policy_of_text dtd text = ok (Smoqe_security.Policy.of_string dtd text)

(* the everything-visible contrast policy: no annotation, default Allow *)
let open_policy dtd = policy_of_text dtd ""

let tenant_reference ~dtd ~policy ~doc =
  let cold = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy cold ~group:"members" policy);
  let view = Option.get (Engine.view cold ~group:"members") in
  (cold, visible_set view doc)

let test_tenant_shared_vs_cold () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  let dtd = Hospital.dtd in
  let engine = Engine.of_tree ~dtd doc in
  let tenants = [ "t0"; "t1"; "t2"; "t3" ] in
  List.iter
    (fun t ->
      ok (Engine.register_policy engine ~group:t Hospital.policy))
    tenants;
  let counters = Engine.tenant_counters engine in
  Alcotest.(check int) "one policy key" 1 (List.assoc "policy_keys" counters);
  Alcotest.(check int) "one derivation" 1 (List.assoc "derivations" counters);
  Alcotest.(check int) "three key hits" 3
    (List.assoc "policy_key_hits" counters);
  let cold, visible = tenant_reference ~dtd ~policy:Hospital.policy ~doc in
  List.iter
    (fun (qname, text) ->
      List.iter
        (fun (mode, mname) ->
          let reference =
            okr (Engine.query_robust cold ~group:"members" ~mode text)
          in
          List.iteri
            (fun i t ->
              let label what =
                Printf.sprintf "%s (%s, tenant %s, %s)" qname mname t what
              in
              let o = okr (Engine.query_robust engine ~group:t ~mode text) in
              Alcotest.(check (list int)) (label "answers")
                reference.Engine.answers o.Engine.answers;
              Alcotest.(check (list string)) (label "xml")
                reference.Engine.answer_xml o.Engine.answer_xml;
              List.iter
                (fun id ->
                  if not (List.mem id visible) then
                    Alcotest.failf "%s: node %d is policy-hidden"
                      (label "leak") id)
                o.Engine.answers;
              (* every tenant after the first rides the first tenant's
                 compiled plan: cross-tenant reuse, the point of the key *)
              if i > 0 then begin
                Alcotest.(check int) (label "cross-tenant plan hit") 1
                  o.Engine.stats.Stats.plan_cache_hit;
                Alcotest.(check int) (label "policy-key hit") 1
                  o.Engine.stats.Stats.policy_key_hits
              end)
            tenants)
        modes)
    (Queries.suite @ Queries.view_suite)

let test_tenant_isolation () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  let dtd = Hospital.dtd in
  let engine = Engine.of_tree ~dtd doc in
  ok (Engine.register_policy engine ~group:"locked" Hospital.policy);
  ok (Engine.register_policy engine ~group:"open" (open_policy dtd));
  Alcotest.(check int) "two keys" 2
    (List.assoc "policy_keys" (Engine.tenant_counters engine));
  let _, visible_locked =
    tenant_reference ~dtd ~policy:Hospital.policy ~doc
  in
  let cold_open, visible_open =
    tenant_reference ~dtd ~policy:(open_policy dtd) ~doc
  in
  List.iter
    (fun (qname, text) ->
      List.iter
        (fun (mode, mname) ->
          let locked =
            okr (Engine.query_robust engine ~group:"locked" ~mode text)
          in
          List.iter
            (fun id ->
              if not (List.mem id visible_locked) then
                Alcotest.failf "%s (%s): locked tenant sees hidden node %d"
                  qname mname id)
            locked.Engine.answers;
          let opened =
            okr (Engine.query_robust engine ~group:"open" ~mode text)
          in
          let reference =
            okr (Engine.query_robust cold_open ~group:"members" ~mode text)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s (%s): open tenant = open cold" qname mname)
            reference.Engine.answers opened.Engine.answers;
          List.iter
            (fun id ->
              if not (List.mem id visible_open) then
                Alcotest.failf "%s (%s): open tenant leak %d" qname mname id)
            opened.Engine.answers)
        modes)
    (Queries.suite @ Queries.view_suite);
  (* S0 hides pname entirely: the locked tenant must see none, ever *)
  let o = okr (Engine.query_robust engine ~group:"locked" "//pname") in
  Alcotest.(check (list int)) "locked //pname is empty" [] o.Engine.answers;
  let o = okr (Engine.query_robust engine ~group:"open" "//pname") in
  Alcotest.(check bool) "open //pname is not" true (o.Engine.answers <> [])

let test_tenant_churn_and_update () =
  let doc = Hospital.generate ~seed:9 ~n_patients:3 ~recursion_depth:1 () in
  let dtd = Hospital.dtd in
  let engine = Engine.of_tree ~dtd doc in
  List.iter
    (fun t ->
      ok (Engine.register_policy engine ~group:t Hospital.policy))
    [ "t0"; "t1" ];
  let queries = Queries.suite @ Queries.view_suite in
  (* warm the shared plans, then update through the group-less admin
     path: tenant answers must keep matching a from-scratch derivation
     over the updated document *)
  List.iter
    (fun (_, text) ->
      ignore (okr (Engine.query_robust engine ~group:"t0" text)))
    queries;
  let applied = random_updates ~seed:41 ~steps:8 engine in
  Alcotest.(check bool) "updates applied" true (applied > 0);
  let updated = Engine.document engine in
  let cold, visible =
    tenant_reference ~dtd ~policy:Hospital.policy ~doc:updated
  in
  List.iter
    (fun (qname, text) ->
      let reference = okr (Engine.query_robust cold ~group:"members" text) in
      List.iter
        (fun t ->
          let o = okr (Engine.query_robust engine ~group:t text) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s after update (tenant %s)" qname t)
            reference.Engine.answer_xml o.Engine.answer_xml;
          List.iter
            (fun id ->
              if not (List.mem id visible) then
                Alcotest.failf "%s after update: leak %d" qname id)
            o.Engine.answers)
        [ "t0"; "t1" ])
    queries;
  (* churn t1 onto the open policy: t1 follows its new view immediately,
     t0 keeps the old artifacts *)
  ok (Engine.register_policy engine ~group:"t1" (open_policy dtd));
  let cold_open, _ =
    tenant_reference ~dtd ~policy:(open_policy dtd) ~doc:updated
  in
  List.iter
    (fun (qname, text) ->
      let ref_locked = okr (Engine.query_robust cold ~group:"members" text) in
      let ref_open =
        okr (Engine.query_robust cold_open ~group:"members" text)
      in
      let o0 = okr (Engine.query_robust engine ~group:"t0" text) in
      let o1 = okr (Engine.query_robust engine ~group:"t1" text) in
      Alcotest.(check (list string))
        (qname ^ ": t0 unchanged by t1 churn")
        ref_locked.Engine.answer_xml o0.Engine.answer_xml;
      Alcotest.(check (list string))
        (qname ^ ": churned t1 = open cold")
        ref_open.Engine.answer_xml o1.Engine.answer_xml)
    queries;
  (* churn t0 away too: the old key's last holder leaves, its artifacts
     retire (generation bump) and no stale plan may serve either tenant *)
  let gen_before =
    List.assoc "generation" (Engine.tenant_counters engine)
  in
  ok (Engine.register_policy engine ~group:"t0" (open_policy dtd));
  let gen_after = List.assoc "generation" (Engine.tenant_counters engine) in
  Alcotest.(check bool) "retirement bumps the generation" true
    (gen_after > gen_before);
  List.iter
    (fun (qname, text) ->
      let ref_open =
        okr (Engine.query_robust cold_open ~group:"members" text)
      in
      List.iter
        (fun t ->
          let o = okr (Engine.query_robust engine ~group:t text) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s: %s after full churn = open cold" qname t)
            ref_open.Engine.answer_xml o.Engine.answer_xml)
        [ "t0"; "t1" ])
    queries

(* Random tenant pairs over random DTD draws: any two tenants registered
   with the same policy draw must answer byte-identically to the
   per-tenant cold derivation, under shared artifacts. *)
let test_tenant_property () =
  for seed = 1 to 12 do
    let dtd =
      Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
        ~recursion:(seed mod 2 = 0) ()
    in
    let policy = Random_dtd.random_policy ~seed:(seed * 3 + 1) dtd in
    match Docgen.generate ~seed:(seed * 5 + 2) ~max_depth:8 ~fanout:2 dtd with
    | exception Docgen.No_finite_expansion _ -> ()
    | doc ->
      let engine = Engine.of_tree ~dtd doc in
      (match Engine.register_policy engine ~group:"a" policy with
      | Error _ -> ()  (* derivation unsupported for this draw: skip *)
      | Ok () ->
        ok (Engine.register_policy engine ~group:"b" policy);
        let cold = Engine.of_tree ~dtd doc in
        ok (Engine.register_policy cold ~group:"members" policy);
        let view = Option.get (Engine.view cold ~group:"members") in
        let visible = visible_set view doc in
        let tags = Dtd.element_names (Derive.view_dtd view) in
        List.iter
          (fun s ->
            let text =
              Pretty.path_to_string
                (Random_dtd.random_query ~seed:s ~size:6 ~tags ())
            in
            let reference =
              okr (Engine.query_robust cold ~group:"members" text)
            in
            List.iter
              (fun t ->
                let o = okr (Engine.query_robust engine ~group:t text) in
                Alcotest.(check (list string))
                  (Printf.sprintf "seed %d %s (tenant %s)" seed text t)
                  reference.Engine.answer_xml o.Engine.answer_xml;
                List.iter
                  (fun id ->
                    if not (List.mem id visible) then
                      Alcotest.failf "seed %d %s: tenant %s leak %d" seed
                        text t id)
                  o.Engine.answers)
              [ "a"; "b" ])
          [ (seed * 7) + 3; (seed * 11) + 5 ])
  done

let () =
  Alcotest.run "smoqe_oracle"
    [
      ( "differential",
        [
          Alcotest.test_case "hospital battery" `Quick test_hospital;
          Alcotest.test_case "bib battery" `Quick test_bib;
          Alcotest.test_case "session path" `Quick test_session_oracle;
        ] );
      ( "property",
        [ Alcotest.test_case "random views, dom=stax=oracle" `Quick
            test_property ] );
      ( "parallel",
        [
          Alcotest.test_case "hospital via pool" `Quick test_parallel_hospital;
          Alcotest.test_case "bib via pool" `Quick test_parallel_bib;
          Alcotest.test_case "random draws via pool" `Quick
            test_parallel_property;
        ] );
      ( "batch",
        [
          Alcotest.test_case "hospital run_many matrix" `Quick
            test_batch_hospital;
          Alcotest.test_case "bib run_many matrix" `Quick test_batch_bib;
          Alcotest.test_case "hospital sharded across pool" `Quick
            test_batch_pooled_hospital;
          Alcotest.test_case "bib sharded across pool" `Quick
            test_batch_pooled_bib;
          Alcotest.test_case "members deduped to one key" `Quick
            test_batch_one_key;
          Alcotest.test_case "one key plus a malformed member" `Quick
            test_batch_one_key_bad_member;
          Alcotest.test_case "malformed member fails alone" `Quick
            test_batch_bad_member;
          Alcotest.test_case "random draws, batch = inline" `Quick
            test_batch_property;
          Alcotest.test_case "session road" `Quick test_batch_session;
        ] );
      ( "write-path",
        [
          Alcotest.test_case "hospital: update = rematerialize" `Quick
            test_write_hospital;
          Alcotest.test_case "bib: update = rematerialize" `Quick
            test_write_bib;
          Alcotest.test_case "random draws: update = rematerialize" `Quick
            test_write_property;
        ] );
      ( "tenant",
        [
          Alcotest.test_case "shared artifacts = cold derivation" `Quick
            test_tenant_shared_vs_cold;
          Alcotest.test_case "isolation across distinct keys" `Quick
            test_tenant_isolation;
          Alcotest.test_case "churn + update keep the oracle" `Quick
            test_tenant_churn_and_update;
          Alcotest.test_case "random pairs share one key" `Quick
            test_tenant_property;
        ] );
    ]
