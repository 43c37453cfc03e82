(* The write path: functional tree splices, incremental TAX maintenance,
   view-legality enforcement and subtree-scoped plan invalidation.

   The layering mirrors the implementation: Tree.splice against a
   from-scratch rebuild (every pointer array, not just the
   serialization), Tax.splice against Tax.build, Update legality against
   materialization provenance, and the engine's scoped invalidation
   against the cache counters. *)

module Tree = Smoqe_xml.Tree
module Serializer = Smoqe_xml.Serializer
module Tax = Smoqe_tax.Tax
module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Update = Smoqe_update.Update
module Err = Smoqe_robust.Error
module Materialize = Smoqe_security.Materialize
module Hospital = Smoqe_workload.Hospital
module Random_dtd = Smoqe_workload.Random_dtd
module Docgen = Smoqe_workload.Docgen

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let okr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Err.to_string e)

(* --- Tree splice = rebuild, array by array --------------------------------- *)

(* [Tree_check.check_physical] compares each spliced tree, node by node,
   with a from-scratch build of its own content. *)

(* One random edit on [doc], drawn from the document's own material (so
   no new tags are interned and the token must be preserved).  Returns
   the resolved op. *)
let random_edit rng doc =
  let n_nodes = Tree.n_nodes doc in
  let pick_node () = Random.State.int rng n_nodes in
  let pick_nonroot () = 1 + Random.State.int rng (n_nodes - 1) in
  if n_nodes < 2 then
    (* shrunk to a bare root: the only edits left target the root *)
    Update.R_replace (0, Tree.to_source doc 0)
  else
  match Random.State.int rng 4 with
  | 0 ->
    (* replace (occasionally the root) with another subtree's material *)
    let n = if Random.State.int rng 8 = 0 then 0 else pick_nonroot () in
    let m = pick_node () in
    Update.R_replace (n, Tree.to_source doc m)
  | 1 -> Update.R_delete (pick_nonroot ())
  | 2 ->
    (* insert a copy before an existing node *)
    let n = pick_nonroot () in
    let p = Option.get (Tree.parent doc n) in
    let m = pick_node () in
    Update.R_insert { parent = p; before = Some n; source = Tree.to_source doc m }
  | _ ->
    (* append a copy as a last child of a random element *)
    let rec elem tries =
      let n = pick_node () in
      if Tree.is_element doc n || tries > 50 then n else elem (tries + 1)
    in
    let p = elem 0 in
    if Tree.is_text doc p then Update.R_replace (p, Tree.to_source doc p)
    else
      Update.R_insert
        { parent = p; before = None; source = Tree.to_source doc (pick_node ()) }

let test_splice_physical () =
  for seed = 1 to 20 do
    let dtd =
      Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
        ~recursion:(seed mod 2 = 0) ()
    in
    match Docgen.generate ~seed:(seed * 5 + 2) ~max_depth:8 ~fanout:3 dtd with
    | exception Docgen.No_finite_expansion _ -> ()
    | doc ->
      let rng = Random.State.make [| seed * 17 + 1 |] in
      let tree = ref doc in
      for step = 1 to 6 do
        let r = random_edit rng !tree in
        match Update.validate !tree r with
        | Error _ -> ()
        | Ok () ->
          let label = Printf.sprintf "seed %d step %d" seed step in
          let nt, fp = okr (Update.apply !tree r) in
          Tree_check.check_physical label nt;
          (* edits drawn from the document's own material intern no new
             tag: the interning lineage token must survive, and with it
             tag-id stability *)
          Alcotest.(check int) (label ^ ": token preserved")
            (Tree.tags_token !tree) (Tree.tags_token nt);
          for tag = 0 to Tree.n_tags !tree - 1 do
            Alcotest.(check string)
              (Printf.sprintf "%s: tag %d stable" label tag)
              (Tree.tag_name !tree tag) (Tree.tag_name nt tag)
          done;
          (* incremental TAX maintenance equals a from-scratch build *)
          let spliced =
            Tax.splice (Tax.build !tree) nt ~lo:fp.Update.fp_lo
              ~old_hi:fp.Update.fp_old_hi ~par:fp.Update.fp_parent
          in
          Alcotest.(check bool) (label ^ ": tax splice = build") true
            (Tax.equal spliced (Tax.build nt));
          tree := nt
      done
  done

(* A new tag in the inserted material must change the lineage token —
   the signal that forces frozen tables to respecialize. *)
let test_token_changes_on_new_tag () =
  let doc =
    Tree.of_source
      (Tree.E ("r", [], [ Tree.E ("a", [], [ Tree.T "1" ]) ]))
  in
  let same = Tree.replace_subtree doc 1 (Tree.to_source doc 1) in
  Alcotest.(check int) "identity replace keeps the token"
    (Tree.tags_token doc) (Tree.tags_token same);
  let grown =
    Tree.insert_subtree doc ~parent:Tree.root
      (Tree.E ("brand_new", [], []))
  in
  Alcotest.(check bool) "new tag mints a new token" false
    (Tree.tags_token doc = Tree.tags_token grown);
  (* old ids still stable even when the table grew *)
  for tag = 0 to Tree.n_tags doc - 1 do
    Alcotest.(check string)
      (Printf.sprintf "grown tag %d stable" tag)
      (Tree.tag_name doc tag) (Tree.tag_name grown tag)
  done

(* --- illegal updates: denied, and observably a no-op ----------------------- *)

let hidden_node view doc =
  let m = Materialize.materialize view doc in
  let exposed = Hashtbl.create 64 in
  Array.iter (fun n -> Hashtbl.replace exposed n ()) m.Materialize.provenance;
  let rec find n =
    if n >= Tree.n_nodes doc then None
    else if not (Hashtbl.mem exposed n) then Some n
    else find (n + 1)
  in
  find 0

let test_denied_is_noop () =
  let doc = Hospital.generate ~seed:7 ~n_patients:4 ~recursion_depth:2 () in
  let engine = Engine.of_tree ~dtd:Hospital.dtd doc in
  ok (Engine.register_policy engine ~group:"members" Hospital.policy);
  Engine.build_index engine;
  let view = Option.get (Engine.view engine ~group:"members") in
  let hidden =
    match hidden_node view doc with
    | Some n -> n
    | None -> Alcotest.fail "hospital policy hides nothing?"
  in
  let probe = "//pname" in
  let before = okr (Engine.query_robust engine ~group:"members" probe) in
  let tree_before = Engine.document engine in
  let index_before = Option.get (Engine.index engine) in
  let counters_before = Engine.plan_cache_counters engine in
  let session = ok (Session.login engine (Session.Member "members")) in
  let expect_denied label op =
    match Session.update_robust session op with
    | Error (Err.Update_denied { node; _ }) ->
      Alcotest.(check bool)
        (label ^ ": offending node reported in range")
        true
        (node >= 0 && node < Tree.n_nodes doc)
    | Error e -> Alcotest.failf "%s: wrong error %s" label (Err.to_string e)
    | Ok _ -> Alcotest.failf "%s: a view-illegal update was applied" label
  in
  expect_denied "delete hidden" (Update.Delete (Update.By_id hidden));
  expect_denied "replace hidden"
    (Update.Replace (Update.By_id hidden, Tree.T "overwritten"));
  expect_denied "insert under hidden"
    (Update.Insert
       { parent = Update.By_id hidden; before = None; source = Tree.T "x" });
  (* deleting an exposed ancestor of a hidden node is denied too: the
     removed subtree must be exposed in full *)
  let ancestor_of_hidden =
    match Tree.parent (Engine.document engine) hidden with
    | Some p when p <> Tree.root -> p
    | _ -> hidden
  in
  if ancestor_of_hidden <> hidden then
    expect_denied "delete subtree containing hidden"
      (Update.Delete (Update.By_id ancestor_of_hidden));
  (* the rejections were clean full rejects: the tree and index are the
     very same values, and the probe answers byte-identically *)
  Alcotest.(check bool) "tree physically unchanged" true
    (Engine.document engine == tree_before);
  Alcotest.(check bool) "index physically unchanged" true
    (Option.get (Engine.index engine) == index_before);
  Alcotest.(check int) "no plans dropped"
    (List.assoc "tag_drops" counters_before)
    (List.assoc "tag_drops" (Engine.plan_cache_counters engine));
  let after = okr (Engine.query_robust engine ~group:"members" probe) in
  Alcotest.(check (list int)) "probe answers unchanged" before.Engine.answers
    after.Engine.answers;
  Alcotest.(check (list string)) "probe xml unchanged" before.Engine.answer_xml
    after.Engine.answer_xml

(* --- legal delete-then-reinsert round-trips -------------------------------- *)

let test_delete_reinsert_roundtrip () =
  let doc = Hospital.generate ~seed:11 ~n_patients:4 ~recursion_depth:2 () in
  let engine = Engine.of_tree ~dtd:Hospital.dtd doc in
  Engine.build_index engine;
  let original = Serializer.to_string doc in
  (* find a node whose removal still satisfies the DTD (a patient in a
     patient* list); ids: after deleting [n, end), the old next sibling
     sits exactly at n, so ~before:n restores document order *)
  let rec attempt n =
    if n >= Tree.n_nodes doc then
      Alcotest.fail "no DTD-legal delete target found"
    else
      let p = Tree.parent doc n and ns = Tree.next_sibling doc n in
      let src = Tree.to_source doc n in
      match p with
      | None -> attempt (n + 1)
      | Some p ->
        (match Engine.update_robust engine (Update.Delete (Update.By_id n)) with
        | Error (Err.Parse_error _) -> attempt (n + 1)  (* DTD says no *)
        | Error e -> Alcotest.failf "delete %d: %s" n (Err.to_string e)
        | Ok report ->
          Alcotest.(check int) "delete shrank the document"
            (Tree.n_nodes doc - Tree.subtree_size doc n)
            report.Engine.up_nodes_after;
          let before = Option.map (fun _ -> n) ns in
          let r =
            okr
              (Engine.update_robust engine
                 (Update.Insert { parent = Update.By_id p; before; source = src }))
          in
          Alcotest.(check int) "reinsert restored the size"
            (Tree.n_nodes doc) r.Engine.up_nodes_after;
          Alcotest.(check bool) "index maintained incrementally" true
            r.Engine.up_index_maintained;
          Alcotest.(check string) "round-trip serialization" original
            (Serializer.to_string (Engine.document engine));
          (* the incrementally maintained index equals a fresh build *)
          Alcotest.(check bool) "round-trip index" true
            (Tax.equal
               (Option.get (Engine.index engine))
               (Tax.build (Engine.document engine))))
  in
  attempt 1

(* --- subtree-scoped invalidation ------------------------------------------- *)

let test_scoped_invalidation () =
  let doc =
    Tree.of_source
      (Tree.E
         ( "r", [],
           [
             Tree.E ("a", [], [ Tree.E ("x", [], [ Tree.T "1" ]) ]);
             Tree.E ("b", [], [ Tree.E ("y", [], [ Tree.T "2" ]) ]);
           ] ))
  in
  let engine = Engine.of_tree doc in
  let q_x = "//x" and q_y = "//y" in
  ignore (okr (Engine.query_robust engine q_x));
  ignore (okr (Engine.query_robust engine q_y));
  let b =
    let rec find n =
      if Tree.name doc n = "b" then n else find (n + 1)
    in
    find 0
  in
  (* identity replace of the b-subtree: footprint tags {b, y} *)
  let report =
    okr
      (Engine.update_robust engine
         (Update.Replace (Update.By_id b, Tree.to_source doc b)))
  in
  Alcotest.(check int) "only the intersecting plan dropped" 1
    report.Engine.up_plans_dropped;
  (* //x has a disjoint tag set: its warm entry must have survived *)
  let x2 = okr (Engine.query_robust engine q_x) in
  Alcotest.(check int) "//x still a cache hit" 1
    x2.Engine.stats.Smoqe_hype.Stats.plan_cache_hit;
  (* //y intersected the footprint: recompiled *)
  let y2 = okr (Engine.query_robust engine q_y) in
  Alcotest.(check int) "//y was evicted" 0
    y2.Engine.stats.Smoqe_hype.Stats.plan_cache_hit;
  Alcotest.(check int) "tag_drops counted" 1
    (List.assoc "tag_drops" (Engine.plan_cache_counters engine));
  (* answers still correct after the identity edit, of course *)
  Alcotest.(check int) "//y one answer" 1
    (List.length y2.Engine.answers)

(* By-path targeting through a member's view: the path must resolve to
   exactly one node, and resolution happens through the view. *)
let test_by_path_target () =
  let doc = Hospital.generate ~seed:13 ~n_patients:3 ~recursion_depth:1 () in
  let engine = Engine.of_tree ~dtd:Hospital.dtd doc in
  ok (Engine.register_policy engine ~group:"members" Hospital.policy);
  (* ambiguous: several pnames *)
  (match
     Engine.update_robust engine ~group:"members"
       (Update.Delete (Update.By_path "//pname"))
   with
  | Error (Err.Query_error _) -> ()
  | Error e -> Alcotest.failf "ambiguous target: wrong error %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "ambiguous target accepted");
  (* selecting nothing is a query error too *)
  (match
     Engine.update_robust engine
       (Update.Delete (Update.By_path "//no_such_tag_anywhere"))
   with
  | Error (Err.Query_error _) | Error (Err.Policy_error _) -> ()
  | Error e -> Alcotest.failf "empty target: wrong error %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "empty target accepted")

let () =
  Alcotest.run "smoqe_update"
    [
      ( "splice",
        [
          Alcotest.test_case "random edits: spliced = rebuilt, tax = built"
            `Quick test_splice_physical;
          Alcotest.test_case "tag-lineage token" `Quick
            test_token_changes_on_new_tag;
        ] );
      ( "legality",
        [
          Alcotest.test_case "illegal updates denied and no-op" `Quick
            test_denied_is_noop;
          Alcotest.test_case "delete-then-reinsert round-trip" `Quick
            test_delete_reinsert_roundtrip;
          Alcotest.test_case "by-path targets" `Quick test_by_path_target;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "disjoint plans survive" `Quick
            test_scoped_invalidation;
        ] );
    ]
