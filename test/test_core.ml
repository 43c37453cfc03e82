(* Tests for the engine façade, sessions, and the terminal iSMOQE. *)

module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Serializer = Smoqe_xml.Serializer
module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Ismoqe = Smoqe.Ismoqe
module Trace = Smoqe_hype.Trace
module Hospital = Smoqe_workload.Hospital
module Pool = Smoqe_exec.Pool

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = (i + nl <= hl) && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let okr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Smoqe_robust.Error.to_string e)

let hospital_engine () =
  let doc = Hospital.generate ~seed:31 ~n_patients:10 ~recursion_depth:2 () in
  let e =
    okr (Engine.of_string_robust ~dtd:Hospital.dtd (Serializer.to_string doc))
  in
  ok (Engine.register_policy e ~group:"researchers" Hospital.policy);
  e

let test_engine_of_string_errors () =
  let message = Smoqe_robust.Error.to_string in
  (match Engine.of_string_robust "<oops" with
  | Error e ->
    Alcotest.(check bool) "located" true (contains (message e) "parse error")
  | Ok _ -> Alcotest.fail "accepted bad xml");
  match Engine.of_string_robust ~dtd:Hospital.dtd "<zzz/>" with
  | Error e ->
    Alcotest.(check bool) "invalid" true (contains (message e) "invalid")
  | Ok _ -> Alcotest.fail "accepted invalid doc"

let test_engine_direct_query () =
  let e = hospital_engine () in
  let r = okr (Engine.query_robust e "patient/pname") in
  Alcotest.(check bool) "answers found" true (r.Engine.answers <> []);
  Alcotest.(check int) "xml per answer"
    (List.length r.Engine.answers)
    (List.length r.Engine.answer_xml);
  List.iter
    (fun xml -> Alcotest.(check bool) "pname xml" true (contains xml "<pname>"))
    r.Engine.answer_xml

let test_engine_modes_agree () =
  let e = hospital_engine () in
  List.iter
    (fun q ->
      let dom = okr (Engine.query_robust e ~mode:Engine.Dom q) in
      let stax = okr (Engine.query_robust e ~mode:Engine.Stax q) in
      Alcotest.(check (list int)) q dom.Engine.answers stax.Engine.answers)
    [ "patient/pname"; "//medication"; Smoqe_workload.Queries.q0 ]

let test_engine_view_query () =
  let e = hospital_engine () in
  let direct = okr (Engine.query_robust e "//pname") in
  Alcotest.(check bool) "admin sees names" true (direct.Engine.answers <> []);
  let through_view =
    okr (Engine.query_robust e ~group:"researchers" "//pname")
  in
  Alcotest.(check (list int)) "view hides names" [] through_view.Engine.answers;
  let meds =
    okr
      (Engine.query_robust e ~group:"researchers"
         "patient/treatment/medication")
  in
  (* Medications are exposed only for autism patients. *)
  let doc = Engine.document e in
  List.iter
    (fun n ->
      Alcotest.(check string) "a medication" "medication" (Tree.name doc n))
    meds.Engine.answers

(* An engine that holds only a tree serves StAX by walking it in place:
   no per-query copy of the document, so it allocates no more than a
   scan over the document's bytes.  Both engines answer from a warm plan,
   so only the evaluation is measured. *)
let test_stax_tree_walk_alloc () =
  let doc = Hospital.generate ~seed:5 ~n_patients:200 ~recursion_depth:2 () in
  let bytes = okr (Engine.of_string_robust (Serializer.to_string doc)) in
  let tree = Engine.of_tree (Engine.document bytes) in
  let measure e =
    let run () = okr (Engine.query_robust e ~mode:Engine.Stax "//medication") in
    ignore (run ());
    let before = Gc.minor_words () in
    let o = run () in
    (o, Gc.minor_words () -. before)
  in
  let from_bytes, bytes_words = measure bytes in
  let from_tree, tree_words = measure tree in
  Alcotest.(check (list int)) "same answers" from_bytes.Engine.answers
    from_tree.Engine.answers;
  Alcotest.(check (list string)) "same fragments" from_bytes.Engine.answer_xml
    from_tree.Engine.answer_xml;
  if tree_words > 1.1 *. bytes_words then
    Alcotest.failf "tree walk allocates %.0f words, byte scan %.0f (> 1.1x)"
      tree_words bytes_words

let test_engine_unknown_group () =
  let e = hospital_engine () in
  match Engine.query_robust e ~group:"nope" "patient" with
  | Error err ->
    Alcotest.(check bool) "mentions group" true
      (contains (Smoqe_robust.Error.to_string err) "nope")
  | Ok _ -> Alcotest.fail "unknown group accepted"

let test_engine_bad_query () =
  let e = hospital_engine () in
  match Engine.query_robust e "patient[" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad query accepted"

let test_engine_index_lifecycle () =
  let e = hospital_engine () in
  Alcotest.(check bool) "no index yet" true (Engine.index e = None);
  Engine.build_index e;
  Alcotest.(check bool) "index built" true (Engine.index e <> None);
  let with_index = okr (Engine.query_robust e "//medication") in
  let without = okr (Engine.query_robust e ~use_index:false "//medication") in
  Alcotest.(check (list int)) "same answers" without.Engine.answers
    with_index.Engine.answers;
  (* persistence *)
  let path = Filename.temp_file "smoqe" ".tax" in
  ok (Engine.save_index e path);
  let e2 = hospital_engine () in
  ok (Engine.load_index e2 path);
  Sys.remove path;
  Alcotest.(check bool) "loaded" true (Engine.index e2 <> None)

let test_engine_index_mismatch () =
  let e = hospital_engine () in
  Engine.build_index e;
  let path = Filename.temp_file "smoqe" ".tax" in
  ok (Engine.save_index e path);
  let other =
    okr
      (Engine.of_string_robust
         "<hospital><patient><pname>X</pname></patient></hospital>")
  in
  (match Engine.load_index other path with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "mismatched index accepted");
  Sys.remove path

let test_engine_policy_needs_dtd () =
  let e = okr (Engine.of_string_robust "<hospital/>") in
  match Engine.register_policy e ~group:"g" Hospital.policy with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "policy without dtd accepted"

let test_session_roles () =
  let e = hospital_engine () in
  let admin = ok (Session.login e Session.Admin) in
  let user = ok (Session.login e (Session.Member "researchers")) in
  Alcotest.(check bool) "admin direct" true (Session.can_access_document admin);
  Alcotest.(check bool) "member restricted" false
    (Session.can_access_document user);
  (match Session.login e (Session.Member "ghosts") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ghost group logged in");
  (* same query, different worlds *)
  let a = okr (Session.run_robust admin "//pname") in
  let u = okr (Session.run_robust user "//pname") in
  Alcotest.(check bool) "admin sees" true (a.Engine.answers <> []);
  Alcotest.(check (list int)) "member blind" [] u.Engine.answers

let test_static_short_circuit () =
  let e = hospital_engine () in
  (* names a tag the schema does not declare: provably empty, no pass *)
  let r = okr (Engine.query_robust e "//zebra") in
  Alcotest.(check (list int)) "no answers" [] r.Engine.answers;
  Alcotest.(check int) "no pass over the data" 0
    r.Engine.stats.Smoqe_hype.Stats.passes_over_data;
  (* through the view: hidden types are statically refused too *)
  let r = okr (Engine.query_robust e ~group:"researchers" "//pname") in
  Alcotest.(check int) "view query skipped" 0
    r.Engine.stats.Smoqe_hype.Stats.passes_over_data;
  (* a satisfiable query still runs *)
  let r = okr (Engine.query_robust e "patient/pname") in
  Alcotest.(check int) "real query runs" 1
    r.Engine.stats.Smoqe_hype.Stats.passes_over_data

let test_session_schema () =
  let e = hospital_engine () in
  let admin = ok (Session.login e Session.Admin) in
  let user = ok (Session.login e (Session.Member "researchers")) in
  (match Session.schema admin with
  | Some d -> Alcotest.(check bool) "admin sees pname" true
                (List.mem "pname" (Dtd.element_names d))
  | None -> Alcotest.fail "admin schema missing");
  match Session.schema user with
  | Some d ->
    Alcotest.(check bool) "member does not see pname" false
      (List.mem "pname" (Dtd.element_names d));
    Alcotest.(check bool) "member sees treatment" true
      (List.mem "treatment" (Dtd.element_names d))
  | None -> Alcotest.fail "member schema missing"

let test_ismoqe_renderings () =
  let e = hospital_engine () in
  Engine.build_index e;
  let schema = Ismoqe.schema_graph Hospital.dtd in
  Alcotest.(check bool) "schema mentions patient" true (contains schema "patient");
  let v = Option.get (Engine.view e ~group:"researchers") in
  let spec = Ismoqe.view_specification v in
  Alcotest.(check bool) "spec has sigma" true (contains spec "sigma(");
  Alcotest.(check bool) "spec has view dtd" true (contains spec "<!ELEMENT");
  let mfa =
    okr (Engine.rewrite_only e ~group:"researchers" "patient/treatment")
  in
  Alcotest.(check bool) "ascii automaton" true
    (contains (Ismoqe.mfa_ascii mfa) "SELECT");
  Alcotest.(check bool) "dot automaton" true
    (contains (Ismoqe.mfa_dot mfa) "digraph");
  let trace = Trace.create () in
  let r = okr (Engine.query_robust e ~trace "patient/pname") in
  let rendered = Ismoqe.evaluation_trace ~color:false trace (Engine.document e) in
  Alcotest.(check bool) "trace marks answers" true (contains rendered "ANSWER");
  let colored = Ismoqe.evaluation_trace ~color:true trace (Engine.document e) in
  Alcotest.(check bool) "ansi colors" true (contains colored "\027[");
  let tax = Ismoqe.tax_view (Option.get (Engine.index e)) (Engine.document e) in
  Alcotest.(check bool) "tax view" true (contains tax "{");
  let text = Ismoqe.answers_text (Engine.document e) r.Engine.answers in
  Alcotest.(check bool) "answers text" true (contains text "pname");
  let tree_view = Ismoqe.answers_tree (Engine.document e) r.Engine.answers in
  Alcotest.(check bool) "answers tree" true (contains tree_view "<== answer");
  Alcotest.(check bool) "stats" true
    (String.length (Ismoqe.stats_table r.Engine.stats) > 0)

(* --- the fork-join helper -------------------------------------------------- *)

(* 200 tasks on 4 domains: outcomes come back in input order and every
   task runs exactly once, whichever domain claimed it. *)
let test_pool_order_once () =
  let n = 200 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  let results =
    Pool.run ~domains:4
      (List.init n (fun i () ->
           Atomic.incr runs.(i);
           for _ = 1 to 2_000 do
             Domain.cpu_relax ()
           done;
           i))
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "result in order" i v
      | Error e -> Alcotest.failf "task %d raised %s" i (Printexc.to_string e))
    results;
  Array.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "task %d ran once" i)
        1 (Atomic.get r))
    runs

(* Two tasks that each wait for the other to start can only both see the
   other if two domains run them at once.  The wait gives up after 10 s,
   so a sequential run fails instead of hanging. *)
let test_pool_concurrent () =
  let started = Atomic.make 0 in
  let rendezvous () =
    Atomic.incr started;
    let deadline = Unix.gettimeofday () +. 10. in
    while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    Atomic.get started = 2
  in
  match Pool.run ~domains:2 [ rendezvous; rendezvous ] with
  | [ Ok true; Ok true ] -> ()
  | _ -> Alcotest.fail "the two tasks did not run at once"

(* A raising task yields [Error] in its own slot; the tasks after it still
   run, on the sequential path and on helpers alike. *)
let test_pool_raising_task () =
  List.iter
    (fun domains ->
      let results =
        Pool.run ~domains
          [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
      in
      match results with
      | [ Ok 1; Error (Failure msg); Ok 3 ] ->
        Alcotest.(check string)
          (Printf.sprintf "%d domains: error in its slot" domains)
          "boom" msg
      | _ -> Alcotest.failf "%d domains: wrong outcomes" domains)
    [ 1; 2; 4 ]

(* [~domains:1] spawns nothing: every task runs on the caller.  Each task
   sleeps, so a helper spawned by mistake would get to claim one. *)
let test_pool_sequential () =
  let caller = Domain.self () in
  let results =
    Pool.run ~domains:1
      (List.init 8 (fun _ () ->
           Unix.sleepf 0.002;
           Domain.self ()))
  in
  List.iter
    (function
      | Ok d -> Alcotest.(check bool) "on the caller" true (d = caller)
      | Error e -> Alcotest.failf "raised %s" (Printexc.to_string e))
    results

let () =
  Alcotest.run "smoqe_core"
    [
      ( "engine",
        [
          Alcotest.test_case "input errors" `Quick test_engine_of_string_errors;
          Alcotest.test_case "direct query" `Quick test_engine_direct_query;
          Alcotest.test_case "modes agree" `Quick test_engine_modes_agree;
          Alcotest.test_case "stax tree walk allocation" `Quick
            test_stax_tree_walk_alloc;
          Alcotest.test_case "view query" `Quick test_engine_view_query;
          Alcotest.test_case "unknown group" `Quick test_engine_unknown_group;
          Alcotest.test_case "bad query" `Quick test_engine_bad_query;
          Alcotest.test_case "index lifecycle" `Quick test_engine_index_lifecycle;
          Alcotest.test_case "index mismatch" `Quick test_engine_index_mismatch;
          Alcotest.test_case "policy needs dtd" `Quick test_engine_policy_needs_dtd;
          Alcotest.test_case "static short-circuit" `Quick
            test_static_short_circuit;
        ] );
      ( "session",
        [
          Alcotest.test_case "roles" `Quick test_session_roles;
          Alcotest.test_case "schema" `Quick test_session_schema;
        ] );
      ("ismoqe", [ Alcotest.test_case "renderings" `Quick test_ismoqe_renderings ]);
      ( "pool",
        [
          Alcotest.test_case "input order, each task once" `Quick
            test_pool_order_once;
          Alcotest.test_case "two tasks at once" `Quick test_pool_concurrent;
          Alcotest.test_case "raising task" `Quick test_pool_raising_task;
          Alcotest.test_case "one domain runs on the caller" `Quick
            test_pool_sequential;
        ] );
    ]
