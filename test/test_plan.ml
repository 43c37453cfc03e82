(* The compiled-plan cache: canonical keys, LRU semantics, generation
   invalidation, and the rule that makes caching safe to trust — nothing
   that failed to compile is ever served from the cache. *)

module Canon = Smoqe_plan.Canon
module Plan_cache = Smoqe_plan.Plan_cache
module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Stats = Smoqe_hype.Stats
module Error = Smoqe_robust.Error
module Failpoint = Smoqe_robust.Failpoint
module Serializer = Smoqe_xml.Serializer
module Hospital = Smoqe_workload.Hospital
module Rx_parser = Smoqe_rxpath.Parser
module Ast = Smoqe_rxpath.Ast
module Pool = Smoqe_exec.Pool

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let okr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Error.to_string e)

let parse s = ok (Rx_parser.path_of_string s)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = (i + nl <= hl) && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- canonicalization ------------------------------------------------------ *)

let test_canon_whitespace_parens () =
  List.iter
    (fun (a, b) ->
      Alcotest.(check string)
        (a ^ " ~ " ^ b)
        (Canon.to_key (parse a))
        (Canon.to_key (parse b)))
    [
      ("a/b", "  a /  (b) ");
      ("a/b/c", "(a/b)/c");
      ("a | b | c", "(a | b) | c");
      ("a[b and c and d]", "a[(b and c) and d]");
      ("//medication", "// medication");
      ("a[b = 'x']", "a[ b = 'x' ]");
      ("(a/b)*/c", "((a/b))*/c");
    ]

let test_canon_order_preserved () =
  (* Qualifier and union order are observable (evaluation cost, answer
     order): canonicalization must keep them distinct. *)
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (a ^ " /~ " ^ b)
        false
        (Canon.to_key (parse a) = Canon.to_key (parse b)))
    [
      ("a[b and c]", "a[c and b]");
      ("a[b or c]", "a[c or b]");
      ("a | b", "b | a");
      ("a/b", "b/a");
    ]

let test_canon_round_trip () =
  (* Parsing a key and canonicalizing again is the identity — the property
     that lets raw canonical text probe the cache without being parsed. *)
  List.iter
    (fun (_, text) ->
      let key = Canon.to_key (parse text) in
      Alcotest.(check string) text key (Canon.to_key (parse key)))
    (Smoqe_workload.Queries.suite @ Smoqe_workload.Queries.view_suite
   @ Smoqe_workload.Queries.bib_suite)

let test_canon_normalize_hand_built () =
  (* Hand-assembled ASTs (benches, generators) reach the same key as their
     parsed spelling. *)
  let hand = Ast.Seq (Ast.Seq (Ast.Tag "a", Ast.Tag "b"), Ast.Tag "c") in
  Alcotest.(check string) "right-nested"
    (Canon.to_key (parse "a/b/c"))
    (Canon.to_key hand)

(* --- cache mechanics ------------------------------------------------------- *)

let key ?policy_key ?(mode = "dom") ?(use_index = false) query =
  { Plan_cache.group = None; policy_key; query; mode; use_index }

let test_lru_eviction_order () =
  let c = Plan_cache.create ~capacity:2 () in
  Plan_cache.add c (key "a") 1;
  Plan_cache.add c (key "b") 2;
  (* touch "a": "b" becomes the LRU victim *)
  Alcotest.(check (option int)) "a hit" (Some 1) (Plan_cache.find c (key "a"));
  Plan_cache.add c (key "c") 3;
  Alcotest.(check (option int)) "b evicted" None (Plan_cache.find c (key "b"));
  Alcotest.(check (option int)) "a survives" (Some 1) (Plan_cache.find c (key "a"));
  Alcotest.(check (option int)) "c present" (Some 3) (Plan_cache.find c (key "c"));
  Alcotest.(check int) "one eviction" 1 (Plan_cache.evictions c);
  Alcotest.(check int) "two entries" 2 (Plan_cache.length c)

let test_capacity_zero_disables () =
  let c = Plan_cache.create ~capacity:0 () in
  Plan_cache.add c (key "a") 1;
  Alcotest.(check (option int)) "no entry" None (Plan_cache.find c (key "a"));
  Alcotest.(check int) "nothing stored" 0 (Plan_cache.length c);
  Plan_cache.record_miss c;
  Alcotest.(check int) "no traffic recorded" 0 (Plan_cache.misses c)

let test_shrink_evicts () =
  let c = Plan_cache.create ~capacity:4 () in
  List.iter (fun q -> Plan_cache.add c (key q) 0) [ "a"; "b"; "c"; "d" ];
  ignore (Plan_cache.find c (key "a"));
  Plan_cache.set_capacity c 1;
  Alcotest.(check int) "down to one" 1 (Plan_cache.length c);
  Alcotest.(check (option int)) "the MRU one" (Some 0)
    (Plan_cache.find c (key "a"))

let test_policy_key_generations () =
  let c = Plan_cache.create () in
  Plan_cache.add c (key ~policy_key:"k1" "q") 1;
  Plan_cache.add c (key ~policy_key:"k2" "q") 2;
  Plan_cache.add c (key "q") 3;
  Plan_cache.invalidate_policy_key c "k1";
  Alcotest.(check (option int)) "k1 stale" None
    (Plan_cache.find c (key ~policy_key:"k1" "q"));
  Alcotest.(check (option int)) "k2 current" (Some 2)
    (Plan_cache.find c (key ~policy_key:"k2" "q"));
  Alcotest.(check (option int)) "direct current" (Some 3)
    (Plan_cache.find c (key "q"));
  Alcotest.(check int) "stale drop counted" 1 (Plan_cache.stale_drops c);
  Plan_cache.invalidate_all c;
  Alcotest.(check (option int)) "all stale" None
    (Plan_cache.find c (key ~policy_key:"k2" "q"));
  Alcotest.(check (option int)) "direct stale too" None
    (Plan_cache.find c (key "q"))

let test_gen_fenced_add () =
  (* The mid-compile invalidation fence: an insert carrying a generation
     token captured before the invalidation must be refused — otherwise a
     plan compiled through the old view would be stamped current. *)
  let c = Plan_cache.create () in
  let k = key ~policy_key:"k" "q" in
  let gen = Plan_cache.generation c k in
  Plan_cache.invalidate_policy_key c "k";
  Plan_cache.add c ~gen k 1;
  Alcotest.(check (option int)) "stale insert refused" None
    (Plan_cache.find c k);
  Alcotest.(check int) "refusal counted" 1 (Plan_cache.stale_drops c);
  (* same dance with the global generation *)
  let gen = Plan_cache.generation c k in
  Plan_cache.invalidate_all c;
  Plan_cache.add c ~gen k 2;
  Alcotest.(check (option int)) "globally stale insert refused" None
    (Plan_cache.find c k);
  (* a token captured after the invalidation admits the insert *)
  let gen = Plan_cache.generation c k in
  Plan_cache.add c ~gen k 3;
  Alcotest.(check (option int)) "fresh insert lands" (Some 3)
    (Plan_cache.find c k)

(* --- through the engine ---------------------------------------------------- *)

let hospital_engine () =
  let doc = Hospital.generate ~seed:31 ~n_patients:4 ~recursion_depth:2 () in
  let e = Engine.of_tree ~dtd:Hospital.dtd doc in
  ok (Engine.register_policy e ~group:"researchers" Hospital.policy);
  e

let hit_of outcome = outcome.Engine.stats.Stats.plan_cache_hit

let test_engine_warm_hit () =
  let e = hospital_engine () in
  let run q = okr (Engine.query_robust e ~group:"researchers" q) in
  let first = run "//medication" in
  Alcotest.(check int) "cold" 0 (hit_of first);
  let second = run "//medication" in
  Alcotest.(check int) "warm" 1 (hit_of second);
  Alcotest.(check (list int)) "same answers" first.Engine.answers
    second.Engine.answers;
  Alcotest.(check (list string)) "byte-identical xml" first.Engine.answer_xml
    second.Engine.answer_xml;
  (* reformatted spelling of the same query also hits *)
  let third = run "  // ( medication ) " in
  Alcotest.(check int) "canonical hit" 1 (hit_of third)

let test_engine_capacity_zero () =
  let e = hospital_engine () in
  Engine.set_plan_cache_capacity e 0;
  let q () = okr (Engine.query_robust e "//pname") in
  ignore (q ());
  Alcotest.(check int) "never warm" 0 (hit_of (q ()));
  Alcotest.(check int) "nothing cached" 0
    (List.assoc "entries" (Engine.plan_cache_counters e))

(* A policy over the hospital DTD that differs from [Hospital.policy]:
   every medication is exposed, only patient names are hidden. *)
let names_hidden =
  ok (Smoqe_security.Policy.of_string Hospital.dtd "ann(patient, pname) = N\n")

let test_engine_group_isolation () =
  let e = hospital_engine () in
  ok (Engine.register_policy e ~group:"staff" Hospital.policy);
  let run group = okr (Engine.query_robust e ~group "//medication") in
  let before = run "researchers" in
  ignore (run "staff");
  (* researchers move to another policy: staff keeps the shared key's
     warm plan, researchers answer through the new view *)
  ok (Engine.register_policy e ~group:"researchers" names_hidden);
  let after = run "researchers" in
  Alcotest.(check int) "researchers cold under the new policy" 0
    (hit_of after);
  Alcotest.(check int) "staff still warm" 1 (hit_of (run "staff"));
  let cold = hospital_engine () in
  ok (Engine.register_policy cold ~group:"researchers" names_hidden);
  let reference =
    okr (Engine.query_robust cold ~group:"researchers" "//medication")
  in
  Alcotest.(check (list int)) "answers equal a cold reference"
    reference.Engine.answers after.Engine.answers;
  Alcotest.(check (list string)) "byte-identical xml"
    reference.Engine.answer_xml after.Engine.answer_xml;
  Alcotest.(check bool) "the view really changed" false
    (before.Engine.answers = after.Engine.answers)

let test_engine_reregister_keeps_warm () =
  let e = hospital_engine () in
  let run () =
    okr (Engine.query_robust e ~group:"researchers" "//medication")
  in
  ignore (run ());
  ok (Engine.register_policy e ~group:"researchers" Hospital.policy);
  Alcotest.(check int) "identical policy: still warm" 1 (hit_of (run ()));
  Alcotest.(check int) "no second derivation" 1
    (List.assoc "derivations" (Engine.tenant_counters e))

let test_engine_equal_policies_share () =
  let e = hospital_engine () in
  ok (Engine.register_policy e ~group:"staff" Hospital.policy);
  Alcotest.(check int) "one derivation" 1
    (List.assoc "derivations" (Engine.tenant_counters e));
  let first = okr (Engine.query_robust e ~group:"researchers" "//medication") in
  let second = okr (Engine.query_robust e ~group:"staff" "//medication") in
  Alcotest.(check int) "researchers compile" 0 (hit_of first);
  Alcotest.(check int) "staff's first query is a hit" 1 (hit_of second);
  Alcotest.(check int) "counted as a policy-key hit" 1
    second.Engine.stats.Stats.policy_key_hits;
  Alcotest.(check (list int)) "same answers" first.Engine.answers
    second.Engine.answers

let test_mapped_group_logs_in () =
  (* Groups registered line by line from a NAME = POLICY map (the CLI's
     --tenants file) are principals like any other: they join the
     policy-key registry, their members log in, and they are served
     through the shared view. *)
  let e = hospital_engine () in
  List.iter
    (fun (name, policy) -> ok (Engine.register_policy e ~group:name policy))
    [ ("alice", Hospital.policy); ("bob", Hospital.policy) ];
  let counters = Engine.tenant_counters e in
  Alcotest.(check int) "three registered groups" 3
    (List.assoc "tenants" counters);
  Alcotest.(check int) "one derivation" 1 (List.assoc "derivations" counters);
  let reference =
    okr (Engine.query_robust e ~group:"researchers" "//medication")
  in
  List.iter
    (fun name ->
      let s = ok (Session.login e (Session.Member name)) in
      let o = okr (Session.run_robust s "//medication") in
      Alcotest.(check (list int)) (name ^ " = researchers")
        reference.Engine.answers o.Engine.answers;
      Alcotest.(check int) (name ^ " rides the shared plan") 1 (hit_of o))
    [ "alice"; "bob" ]

let test_engine_replace_document () =
  let e = hospital_engine () in
  ignore (okr (Engine.query_robust e "//pname"));
  Alcotest.(check int) "warm before swap" 1
    (hit_of (okr (Engine.query_robust e "//pname")));
  let bigger = Hospital.generate ~seed:32 ~n_patients:6 ~recursion_depth:2 () in
  ok (Engine.replace_document e bigger);
  let after = okr (Engine.query_robust e "//pname") in
  Alcotest.(check int) "cold after swap" 0 (hit_of after);
  let reference =
    (Smoqe_baseline.Naive.run bigger (parse "//pname")).Smoqe_baseline.Naive
    .answers
  in
  Alcotest.(check (list int)) "answers from the new tree" reference
    (List.sort_uniq compare after.Engine.answers);
  (* a tree that violates the standing DTD is refused, engine unharmed *)
  (match
     Engine.replace_document e
       (Smoqe_xml.Tree.of_source (Smoqe_xml.Tree.E ("zoo", [], [])))
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "invalid replacement accepted");
  Alcotest.(check (list int)) "still serving" reference
    (List.sort_uniq compare
       (okr (Engine.query_robust e "//pname")).Engine.answers)

let test_failpoint_never_populates () =
  let e = hospital_engine () in
  Failpoint.with_failpoints "plan.compile=once" (fun () ->
      match Engine.query_robust e ~group:"researchers" "//medication" with
      | Error (Error.Io_error msg) ->
        Alcotest.(check bool) "names the site" true (contains msg "plan.compile")
      | Error err -> Alcotest.failf "wrong class: %s" (Error.to_string err)
      | Ok _ -> Alcotest.fail "fault did not surface");
  Alcotest.(check int) "cache unpopulated" 0
    (List.assoc "entries" (Engine.plan_cache_counters e));
  (* the failpoint is gone: the next run compiles cold, then serves warm *)
  let again = okr (Engine.query_robust e ~group:"researchers" "//medication") in
  Alcotest.(check int) "recompiled, not served stale" 0 (hit_of again);
  Alcotest.(check int) "then warm" 1
    (hit_of (okr (Engine.query_robust e ~group:"researchers" "//medication")))

let test_budget_checked_on_hit () =
  let e = hospital_engine () in
  ignore (okr (Engine.query_robust e "//pname"));
  (* the cached plan is over this budget: the hit must still refuse *)
  match
    Engine.query_robust e
      ~budget:(Smoqe_robust.Budget.create ~max_states:2 ())
      "//pname"
  with
  | Error (Error.Budget_exceeded { what; _ }) ->
    Alcotest.(check string) "dimension" "max_states" what
  | Error err -> Alcotest.failf "wrong error: %s" (Error.to_string err)
  | Ok _ -> Alcotest.fail "state budget ignored on cache hit"

let test_sessions_share_cache () =
  let e = hospital_engine () in
  let s1 = ok (Session.login e (Session.Member "researchers")) in
  let s2 = ok (Session.login e (Session.Member "researchers")) in
  ignore (okr (Session.run_robust s1 "//medication"));
  Alcotest.(check int) "second session served warm" 1
    (hit_of (okr (Session.run_robust s2 "//medication")))

(* [saved_compile_ms] is charged on the wall clock.  Process CPU time
   would sum the work of every domain, so on many domains each hit would
   claim to save several times the compile it skipped.  Three domains burn
   CPU while the cold query compiles on this domain; every hit of the
   4-domain batch that follows then saves at most that cold query's whole
   wall time.  The document is tiny and the query a five-way union of
   recursive view paths, so compiling dominates the cold query. *)
let test_saved_compile_wall_clock () =
  let doc = Hospital.generate ~seed:31 ~n_patients:1 ~recursion_depth:0 () in
  let e = Engine.of_tree ~dtd:Hospital.dtd doc in
  ok (Engine.register_policy e ~group:"researchers" Hospital.policy);
  let q =
    String.concat " | "
      (List.init 5 (fun i ->
           Printf.sprintf
             "(patient/parent)*/patient[treatment/medication = 'm%d']\
              /treatment/medication"
             i))
  in
  let repeats = 16 in
  let started = Atomic.make 0 and stop = Atomic.make false in
  let burners =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr started;
            while not (Atomic.get stop) do
              Domain.cpu_relax ()
            done))
  in
  while Atomic.get started < 3 do
    Domain.cpu_relax ()
  done;
  let t0 = Unix.gettimeofday () in
  ignore (okr (Engine.query_robust e ~group:"researchers" q));
  let cold_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Atomic.set stop true;
  List.iter Domain.join burners;
  let results =
    Pool.run ~domains:4
      (List.init repeats (fun _ () ->
           Engine.query_robust e ~group:"researchers" q))
  in
  List.iter
    (function
      | Ok (Ok _) -> ()
      | Ok (Error err) -> Alcotest.failf "batch: %s" (Error.to_string err)
      | Error exn -> Alcotest.failf "batch raised %s" (Printexc.to_string exn))
    results;
  let counters = Engine.plan_cache_counters e in
  let hits = List.assoc "hits" counters in
  Alcotest.(check int) "every repeat a hit" repeats hits;
  let saved = float_of_int (List.assoc "saved_compile_ms" counters) in
  let bound = (float_of_int hits *. cold_ms) +. 1. in
  if saved > bound then
    Alcotest.failf "saved_compile_ms %.0f exceeds %d hits x %.2f ms cold"
      saved hits cold_ms

let () =
  Alcotest.run "smoqe_plan"
    [
      ( "canon",
        [
          Alcotest.test_case "whitespace and parens" `Quick
            test_canon_whitespace_parens;
          Alcotest.test_case "order preserved" `Quick test_canon_order_preserved;
          Alcotest.test_case "round trip" `Quick test_canon_round_trip;
          Alcotest.test_case "hand-built ASTs" `Quick
            test_canon_normalize_hand_built;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "capacity 0 disables" `Quick
            test_capacity_zero_disables;
          Alcotest.test_case "shrink evicts" `Quick test_shrink_evicts;
          Alcotest.test_case "policy-key generations" `Quick
            test_policy_key_generations;
          Alcotest.test_case "generation-fenced add" `Quick test_gen_fenced_add;
        ] );
      ( "engine",
        [
          Alcotest.test_case "warm hit" `Quick test_engine_warm_hit;
          Alcotest.test_case "capacity 0" `Quick test_engine_capacity_zero;
          Alcotest.test_case "group isolation" `Quick
            test_engine_group_isolation;
          Alcotest.test_case "identical re-registration keeps warm" `Quick
            test_engine_reregister_keeps_warm;
          Alcotest.test_case "equal policies share one plan" `Quick
            test_engine_equal_policies_share;
          Alcotest.test_case "mapped group logs in" `Quick
            test_mapped_group_logs_in;
          Alcotest.test_case "document replacement" `Quick
            test_engine_replace_document;
          Alcotest.test_case "failed compile never cached" `Quick
            test_failpoint_never_populates;
          Alcotest.test_case "budget checked on hit" `Quick
            test_budget_checked_on_hit;
          Alcotest.test_case "sessions share" `Quick test_sessions_share_cache;
          Alcotest.test_case "saved compile time is wall clock" `Quick
            test_saved_compile_wall_clock;
        ] );
    ]
