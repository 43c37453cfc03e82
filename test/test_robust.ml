(* Robustness: the façade is total.  Malformed input, exhausted budgets
   and injected faults must all come back as [Error _] values — never as
   exceptions — and degraded evaluations must still answer correctly. *)

module Parser = Smoqe_xml.Parser
module Pull = Smoqe_xml.Pull
module Serializer = Smoqe_xml.Serializer
module Compile = Smoqe_automata.Compile
module Eval_stax = Smoqe_hype.Eval_stax
module Stats = Smoqe_hype.Stats
module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Error = Smoqe_robust.Error
module Budget = Smoqe_robust.Budget
module Failpoint = Smoqe_robust.Failpoint
module Hospital = Smoqe_workload.Hospital
module Random_dtd = Smoqe_workload.Random_dtd
module Docgen = Smoqe_workload.Docgen
module Pretty = Smoqe_rxpath.Pretty

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = (i + nl <= hl) && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let okr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Error.to_string e)

let hospital_engine () =
  let doc = Hospital.generate ~seed:31 ~n_patients:10 ~recursion_depth:2 () in
  let e =
    okr (Engine.of_string_robust ~dtd:Hospital.dtd (Serializer.to_string doc))
  in
  ok (Engine.register_policy e ~group:"researchers" Hospital.policy);
  e

(* --- malformed-input corpus ---------------------------------------------- *)

let deep_doc n =
  let buf = Buffer.create (n * 7) in
  for _ = 1 to n do Buffer.add_string buf "<d>" done;
  Buffer.add_string buf "x";
  for _ = 1 to n do Buffer.add_string buf "</d>" done;
  Buffer.contents buf

let malformed =
  [
    ("truncated", "<a><b>text");
    ("tag mismatch", "<a><b></c></a>");
    ("entity broken", "<a>&bogus;</a>");
    ("bad entity number", "<a>&#xZZ;</a>");
    ("empty", "");
    ("garbage", "\x00\x01<<>>&&");
    ("text outside root", "<a/>trailing");
    ("two roots", "<a/><b/>");
    ("unterminated attr", "<a x=\"y><b/></a>");
  ]

let test_malformed_parser () =
  List.iter
    (fun (label, doc) ->
      match Parser.tree_of_string_res doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: parsed" label)
    malformed;
  (* 10k-deep nesting must come back as a value either way, not blow the
     stack *)
  match Parser.tree_of_string_res (deep_doc 10_000) with
  | Ok _ | Error _ -> ()

let test_malformed_engine () =
  List.iter
    (fun (label, doc) ->
      match Engine.of_string_robust doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: engine accepted" label)
    malformed

let test_malformed_stax () =
  (* The streaming evaluator sees the raw bytes: under [Error.guard] every
     corpus entry must classify, not escape. *)
  let mfa = Compile.compile (ok (Smoqe_rxpath.Parser.path_of_string "//d")) in
  List.iter
    (fun (label, doc) ->
      match Error.guard (fun () -> Eval_stax.run mfa (Pull.of_string doc)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: stax accepted" label)
    malformed

let test_deep_budget () =
  match Parser.tree_of_string_res ~budget:(Budget.create ~max_depth:100 ())
          (deep_doc 10_000) with
  | Error msg ->
    Alcotest.(check bool) "names max_depth" true (contains msg "max_depth")
  | Ok _ -> Alcotest.fail "depth budget ignored"

(* --- resource budgets ----------------------------------------------------- *)

let test_budget_max_nodes () =
  let e = hospital_engine () in
  match Engine.query_robust e ~budget:(Budget.create ~max_nodes:5 ()) "//pname" with
  | Error (Error.Budget_exceeded { what; partial_stats; _ }) ->
    Alcotest.(check string) "dimension" "max_nodes" what;
    Alcotest.(check bool) "has partial stats" true (partial_stats <> []);
    Alcotest.(check bool) "scanned before stopping" true
      (List.mem_assoc "nodes_entered" partial_stats
      && List.assoc "nodes_entered" partial_stats > 0)
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "node budget ignored"

let test_budget_timeout () =
  let e = hospital_engine () in
  List.iter
    (fun mode ->
      match
        Engine.query_robust e ~mode ~budget:(Budget.create ~timeout_ms:0 ())
          "//pname"
      with
      | Error (Error.Budget_exceeded { what; _ }) ->
        Alcotest.(check string) "dimension" "timeout_ms" what
      | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
      | Ok _ -> Alcotest.fail "expired deadline ignored")
    [ Engine.Dom; Engine.Stax ]

let test_budget_max_cans () =
  let e = hospital_engine () in
  (* //patient holds every patient subtree as a candidate *)
  match Engine.query_robust e ~budget:(Budget.create ~max_cans:1 ()) "//patient" with
  | Error (Error.Budget_exceeded { what; _ }) ->
    Alcotest.(check string) "dimension" "max_cans" what
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "cans budget ignored"

let test_budget_max_states () =
  let e = hospital_engine () in
  match Engine.query_robust e ~budget:(Budget.create ~max_states:2 ()) "//pname"
  with
  | Error (Error.Budget_exceeded { what; _ }) ->
    Alcotest.(check string) "dimension" "max_states" what
  | Error e -> Alcotest.failf "wrong error: %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "state budget ignored"

let test_budget_generous_is_invisible () =
  let e = hospital_engine () in
  let plain = okr (Engine.query_robust e "//pname") in
  let budget = Budget.create ~timeout_ms:600_000 ~max_nodes:max_int () in
  let budgeted = okr (Engine.query_robust e ~budget "//pname") in
  Alcotest.(check (list int)) "same answers" plain.Engine.answers
    budgeted.Engine.answers

let test_budget_exit_code () =
  Alcotest.(check int) "budget exit" 3
    (Error.exit_code
       (Error.Budget_exceeded { what = "x"; limit = "y"; partial_stats = [] }));
  Alcotest.(check int) "other exit" 1 (Error.exit_code (Error.Io_error "z"))

(* --- failpoints ------------------------------------------------------------ *)

let test_failpoint_actions () =
  Failpoint.with_failpoints "t.once=once" (fun () ->
      Alcotest.(check bool) "armed" true (Failpoint.active ());
      (match Failpoint.trigger "t.once" with
      | () -> Alcotest.fail "once did not fire"
      | exception Failpoint.Injected site ->
        Alcotest.(check string) "site name" "t.once" site);
      Failpoint.trigger "t.once" (* second trigger: already spent *));
  Failpoint.with_failpoints "t.nth=3" (fun () ->
      let fired = ref 0 in
      for _ = 1 to 9 do
        try Failpoint.trigger "t.nth" with Failpoint.Injected _ -> incr fired
      done;
      Alcotest.(check int) "every 3rd of 9" 3 !fired;
      Alcotest.(check int) "triggers counted" 9 (Failpoint.triggers "t.nth");
      Alcotest.(check int) "hits counted" 3 (Failpoint.hits "t.nth"));
  Alcotest.(check bool) "restored" false (Failpoint.active ())

let test_failpoint_cleanup_on_exception () =
  (match
     Failpoint.with_failpoints "t.x=always" (fun () -> failwith "boom")
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check bool) "disarmed after raise" false (Failpoint.active ())

let test_failpoint_bad_spec () =
  (match Failpoint.parse_config "no-equals-sign" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad spec accepted");
  (* a malformed env spec must not break start-up *)
  Failpoint.init_from_env ()

let test_pull_read_fault_is_error () =
  Failpoint.with_failpoints "pull.read=7" (fun () ->
      match
        Engine.of_string_robust "<a><b>one</b><b>two</b><b>three</b></a>"
      with
      | Error err ->
        Alcotest.(check bool) "names the site" true
          (contains (Error.to_string err) "pull.read")
      | Ok _ -> Alcotest.fail "fault did not surface")

let test_store_write_fault_is_error () =
  let dir = Filename.temp_file "smoqe_robust" "" in
  Sys.remove dir;
  let doc = ok (Parser.tree_of_string_res "<a><b>x</b></a>") in
  Failpoint.with_failpoints "store.write=always" (fun () ->
      match Smoqe_store.Store.create ~dir doc with
      | Error msg ->
        Alcotest.(check bool) "names the site" true
          (contains msg "store.write")
      | Ok _ -> Alcotest.fail "store created through a failing disk")

(* A write that faults part-way through leaves the file it was
   replacing byte-identical, and no temporary file behind. *)
(* The atomic write itself: a round trip through the temporary file,
   fsyncs and rename, then a fault mid-write that leaves the old bytes
   and no temporary file behind. *)
let test_atomic_write () =
  let dir = Filename.temp_file "smoqe_atomic" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "data" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  Smoqe_robust.Atomic_file.write path "first";
  Alcotest.(check string) "round trip" "first" (read ());
  Smoqe_robust.Atomic_file.write ~failpoint:"store.write" path "second";
  Alcotest.(check string) "replaced" "second" (read ());
  Failpoint.with_failpoints "store.write=once" (fun () ->
      match
        Smoqe_robust.Atomic_file.write ~failpoint:"store.write" path
          "a torn third version"
      with
      | () -> Alcotest.fail "written through a failing disk"
      | exception Failpoint.Injected site ->
        Alcotest.(check string) "site" "store.write" site);
  Alcotest.(check string) "old file intact" "second" (read ());
  Alcotest.(check (array string)) "no temporary file left" [| "data" |]
    (Sys.readdir dir);
  Sys.remove path;
  Sys.rmdir dir

let test_store_write_fault_is_not_torn () =
  let dir = Filename.temp_file "smoqe_robust" "" in
  Sys.remove dir;
  let doc = Hospital.generate ~seed:3 ~n_patients:2 ~recursion_depth:1 () in
  let store = ok (Smoqe_store.Store.create ~dir ~dtd:Hospital.dtd doc) in
  ok (Smoqe_store.Store.add_policy store ~group:"staff" Hospital.policy);
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let policy_file = Filename.concat (Filename.concat dir "policies") "staff.policy"
  and manifest = Filename.concat dir "MANIFEST" in
  let listing () =
    List.sort compare
      (Array.to_list (Sys.readdir dir)
      @ Array.to_list (Sys.readdir (Filename.concat dir "policies")))
  in
  let before = (read policy_file, read manifest, listing ()) in
  let patients store group =
    let s = ok (Smoqe_store.Store.login store (Session.Member group)) in
    (okr (Session.run_robust s "//patient")).Engine.answer_xml
  in
  let live_before = patients store "staff" in
  let stricter =
    ok (Smoqe_security.Policy.of_string Hospital.dtd "ann(hospital, patient) = N\n")
  in
  Failpoint.with_failpoints "store.write=once" (fun () ->
      match Smoqe_store.Store.add_policy store ~group:"staff" stricter with
      | Error msg ->
        Alcotest.(check bool) "names the site" true (contains msg "store.write");
        Alcotest.(check int) "the fault fired mid-write" 1
          (Failpoint.hits "store.write")
      | Ok () -> Alcotest.fail "policy rewritten through a failing disk");
  let p, m, l = before in
  Alcotest.(check string) "old policy file byte-identical" p (read policy_file);
  Alcotest.(check string) "manifest byte-identical" m (read manifest);
  Alcotest.(check (list string)) "no temporary file left" l (listing ());
  (* the failed add applied nothing: the live engine answers as before,
     and as a reopen of the store does *)
  let live_after = patients store "staff" in
  Alcotest.(check (list string)) "live answers unchanged" live_before
    live_after;
  Alcotest.(check (list string)) "live = reopened" live_after
    (patients (ok (Smoqe_store.Store.open_dir dir)) "staff");
  (* a new group whose policy file or manifest write fails is not
     registered at all *)
  List.iter
    (fun spec ->
      Failpoint.with_failpoints spec (fun () ->
          match Smoqe_store.Store.add_policy store ~group:"nurses" stricter with
          | Error _ -> ()
          | Ok () -> Alcotest.failf "%s: added through a failing disk" spec);
      (match Smoqe_store.Store.login store (Session.Member "nurses") with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: half-added group logs in" spec);
      Alcotest.(check string) (spec ^ ": manifest byte-identical") m
        (read manifest);
      Alcotest.(check (list string)) (spec ^ ": groups") [ "staff" ]
        (Smoqe_store.Store.groups
           (ok (Smoqe_store.Store.open_dir dir))))
    [ "store.write=once"; "store.write=2" ];
  Alcotest.(check (list string)) "staff still as before" live_before
    (patients store "staff");
  (* the same write, unfaulted, replaces the file *)
  ok (Smoqe_store.Store.add_policy store ~group:"staff" stricter);
  Alcotest.(check bool) "policy file replaced" true (read policy_file <> p);
  Alcotest.(check (list string)) "still no temporary file" l (listing ())

let test_stax_fault_degrades_to_dom () =
  let e = hospital_engine () in
  let expected = okr (Engine.query_robust e ~mode:Engine.Dom "//pname") in
  Failpoint.with_failpoints "pull.read=once" (fun () ->
      (* the StAX re-parse hits the fault; the engine must fall back to one
         DOM pass over the already-loaded tree and answer anyway *)
      match Engine.query_robust e ~mode:Engine.Stax "//pname" with
      | Ok r ->
        Alcotest.(check (list int)) "same answers after degradation"
          expected.Engine.answers r.Engine.answers;
        Alcotest.(check int) "retry recorded" 1
          r.Engine.stats.Stats.degraded_stax_retry;
        Alcotest.(check bool) "degraded flagged" true
          (Stats.degraded r.Engine.stats)
      | Error err -> Alcotest.failf "no degradation: %s" (Error.to_string err))

(* A file rewritten after load is not the document the engine holds: a
   scan of it would answer with ids that name other nodes of the held
   tree.  StAX notices and degrades to the held tree, answering as DOM. *)
let test_stax_file_changed_after_load () =
  let path = Filename.temp_file "smoqe" ".xml" in
  let write s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
  write "<r><a>x</a><b>y</b></r>";
  let e = okr (Engine.of_file_robust path) in
  write "<r><b>z</b><a>w</a><a>v</a></r>";
  let dom = Engine.query_robust e ~mode:Engine.Dom "a" in
  let stax = Engine.query_robust e ~mode:Engine.Stax "a" in
  Sys.remove path;
  let dom = okr dom and stax = okr stax in
  Alcotest.(check (list int)) "dom answers the loaded document" [ 1 ]
    dom.Engine.answers;
  Alcotest.(check (list int)) "stax answers = dom" dom.Engine.answers
    stax.Engine.answers;
  Alcotest.(check (list string)) "stax fragments = dom" dom.Engine.answer_xml
    stax.Engine.answer_xml;
  Alcotest.(check int) "retry recorded" 1
    stax.Engine.stats.Stats.degraded_stax_retry

let test_hype_step_fault_is_error () =
  let e = hospital_engine () in
  Failpoint.with_failpoints "hype.step=5" (fun () ->
      match Engine.query_robust e ~mode:Engine.Dom "//pname" with
      | Error (Error.Io_error msg) ->
        Alcotest.(check bool) "names the site" true (contains msg "hype.step")
      | Error err -> Alcotest.failf "wrong class: %s" (Error.to_string err)
      | Ok _ -> Alcotest.fail "fault did not surface")

let test_index_degradation () =
  let e = hospital_engine () in
  (* requesting the index without one loaded: served unindexed, flagged *)
  let r = okr (Engine.query_robust e ~use_index:true "//medication") in
  Alcotest.(check int) "no-index degradation" 1
    r.Engine.stats.Stats.degraded_no_index;
  let baseline = okr (Engine.query_robust e "//medication") in
  Alcotest.(check (list int)) "answers unaffected" baseline.Engine.answers
    r.Engine.answers

let test_modes_agree_with_failpoints_cleared () =
  Failpoint.clear ();
  let e = hospital_engine () in
  List.iter
    (fun q ->
      let dom = okr (Engine.query_robust e ~mode:Engine.Dom q) in
      let stax = okr (Engine.query_robust e ~mode:Engine.Stax q) in
      Alcotest.(check (list int)) q dom.Engine.answers stax.Engine.answers;
      Alcotest.(check int) "no degradation" 0
        stax.Engine.stats.Stats.degraded_stax_retry)
    [ "//pname"; "//medication"; Smoqe_workload.Queries.q0 ]

(* --- fuzz: random documents and queries through the façade ----------------- *)

let test_fuzz_sessions () =
  for i = 1 to 100 do
    let seed = (i * 1009) + 7 in
    let n_types = 3 + (i mod 6) in
    let dtd = Random_dtd.generate ~seed ~n_types ~recursion:(i mod 2 = 0) () in
    let doc =
      try Docgen.generate ~seed ~max_depth:6 ~fanout:2 dtd
      with Docgen.No_finite_expansion _ ->
        Smoqe_xml.Tree.of_source (Smoqe_xml.Tree.E ("r", [], []))
    in
    let tags = Smoqe_xml.Dtd.element_names dtd in
    let q =
      Pretty.path_to_string (Random_dtd.random_query ~seed ~size:5 ~tags ())
    in
    (* StAX scans bytes: its leg is served from the serialization *)
    let engine_for = function
      | Engine.Dom -> Engine.of_tree doc
      | Engine.Stax ->
        Engine.of_string_robust (Serializer.to_string ~indent:false doc)
    in
    List.iter
      (fun mode ->
        match engine_for mode with
        | Error e -> Alcotest.failf "fuzz %d: load: %s" i (Error.to_string e)
        | Ok e ->
          let admin =
            match Session.login e Session.Admin with
            | Ok s -> s
            | Error msg -> Alcotest.failf "fuzz %d: login: %s" i msg
          in
          (* any outcome is fine — raising is the only failure *)
          (match Session.run_robust admin ~mode q with
          | Ok _ | Error _ -> ()
          | exception ex ->
            Alcotest.failf "fuzz %d (%s): raised %s" i q
              (Printexc.to_string ex))
        | exception ex ->
          Alcotest.failf "fuzz %d: engine raised %s" i (Printexc.to_string ex))
      [ Engine.Dom; Engine.Stax ]
  done

let test_fuzz_malformed_bytes () =
  (* random byte soup through the full entry point *)
  let rand = Random.State.make [| 2006 |] in
  for i = 1 to 100 do
    let len = Random.State.int rand 64 in
    let doc =
      String.init len (fun _ ->
          Char.chr (Random.State.int rand 128))
    in
    match Engine.of_string_robust doc with
    | Ok _ | Error _ -> ()
    | exception ex ->
      Alcotest.failf "byte fuzz %d raised %s" i (Printexc.to_string ex)
  done

let () =
  Alcotest.run "smoqe_robust"
    [
      ( "malformed",
        [
          Alcotest.test_case "parser corpus" `Quick test_malformed_parser;
          Alcotest.test_case "engine corpus" `Quick test_malformed_engine;
          Alcotest.test_case "stax corpus" `Quick test_malformed_stax;
          Alcotest.test_case "depth budget" `Quick test_deep_budget;
        ] );
      ( "budget",
        [
          Alcotest.test_case "max nodes" `Quick test_budget_max_nodes;
          Alcotest.test_case "timeout" `Quick test_budget_timeout;
          Alcotest.test_case "max cans" `Quick test_budget_max_cans;
          Alcotest.test_case "max states" `Quick test_budget_max_states;
          Alcotest.test_case "generous budget invisible" `Quick
            test_budget_generous_is_invisible;
          Alcotest.test_case "exit codes" `Quick test_budget_exit_code;
        ] );
      ( "failpoint",
        [
          Alcotest.test_case "actions" `Quick test_failpoint_actions;
          Alcotest.test_case "cleanup on exception" `Quick
            test_failpoint_cleanup_on_exception;
          Alcotest.test_case "bad spec" `Quick test_failpoint_bad_spec;
          Alcotest.test_case "pull read fault" `Quick
            test_pull_read_fault_is_error;
          Alcotest.test_case "store write fault" `Quick
            test_store_write_fault_is_error;
          Alcotest.test_case "store write fault leaves the old file" `Quick
            test_store_write_fault_is_not_torn;
          Alcotest.test_case "atomic write: durable round trip, no tear"
            `Quick test_atomic_write;
          Alcotest.test_case "stax degrades to dom" `Quick
            test_stax_fault_degrades_to_dom;
          Alcotest.test_case "stax file changed after load" `Quick
            test_stax_file_changed_after_load;
          Alcotest.test_case "hype step fault" `Quick
            test_hype_step_fault_is_error;
          Alcotest.test_case "index degradation" `Quick test_index_degradation;
          Alcotest.test_case "modes agree unfaulted" `Quick
            test_modes_agree_with_failpoints_cleared;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "random docs and queries" `Quick
            test_fuzz_sessions;
          Alcotest.test_case "random bytes" `Quick test_fuzz_malformed_bytes;
        ] );
    ]
