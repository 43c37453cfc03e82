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
module Exposure = Smoqe_security.Exposure
module Derive = Smoqe_security.Derive
module Validator = Smoqe_xml.Validator
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

(* A splice under a parent with text children recomputes that parent's
   value, whichever way the edit moves it between no text, one text
   child (an alias of its span) and mixed content (an appended
   concatenation); an inserted mixed element gets its own value. *)
let test_splice_mixed_parent_value () =
  let doc =
    Smoqe_xml.Parser.tree_of_string
      "<r><p>one<b>in</b>two</p><q>solo</q></r>"
  in
  let p = 1 and b = 3 and two = 5 and q = 6 in
  Alcotest.(check string) "parsed mixed value" "onetwo" (Tree.value doc p);
  let check label expect node t =
    Tree_check.check_physical label t;
    Alcotest.(check string) label expect (Tree.value t node)
  in
  check "delete a text child: one left" "one" p (Tree.delete_subtree doc two);
  check "delete an element child: still mixed" "onetwo" p
    (Tree.delete_subtree doc b);
  check "replace an element by text" "oneMIDtwo" p
    (Tree.replace_subtree doc b (Tree.T "MID"));
  check "append text to mixed" "onetwothree" p
    (Tree.insert_subtree doc ~parent:p (Tree.T "three"));
  check "insert an element: value kept" "onetwo" p
    (Tree.insert_subtree doc ~parent:p ~before:two (Tree.E ("e", [], [])));
  check "single text becomes mixed" "X-solo" q
    (Tree.insert_subtree doc ~parent:q ~before:(q + 1) (Tree.T "X-"));
  check "only text deleted" "" q (Tree.delete_subtree doc (q + 1));
  let t =
    Tree.insert_subtree doc ~parent:q
      (Tree.E ("m", [], [ Tree.T "a"; Tree.E ("z", [], []); Tree.T "b" ]))
  in
  check "inserted mixed element" "ab" (q + 2) t;
  check "its parent keeps one text" "solo" q t

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
  let engine = okr (Engine.of_tree ~dtd:Hospital.dtd doc) in
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

(* --- member legality: the exposure bitmap against materialization ----------- *)

(* The reference is member legality as it was decided before the
   exposure bitmap: hash sets of [Materialize] provenance, materialized
   afresh for each check (once in precheck, twice in postcheck), and the
   same scans.  The engine's verdict must match it on allow/deny, on the
   error class and on the reported node. *)

let ( let* ) = Result.bind

let provenance_set view doc =
  Err.guard (fun () ->
      let set = Hashtbl.create 64 in
      Array.iter
        (fun n -> Hashtbl.replace set n ())
        (Materialize.materialize view doc).Materialize.provenance;
      set)

let ref_denied node = Error (Err.Update_denied { node; msg = "" })

let rec first_hidden vis i stop =
  if i >= stop then Ok ()
  else if not (vis i) then ref_denied i
  else first_hidden vis (i + 1) stop

let reference_precheck view tree r =
  let* exposed = provenance_set view tree in
  match r with
  | Update.R_delete n | Update.R_replace (n, _) ->
    first_hidden (Hashtbl.mem exposed) n (Tree.subtree_end tree n)
  | Update.R_insert { parent; _ } ->
    if Hashtbl.mem exposed parent then Ok () else ref_denied parent

let reference_postcheck view ~old_tree ~new_tree fp =
  let* exposed_old = provenance_set view old_tree in
  let* exposed_new = provenance_set view new_tree in
  let vis_old = Hashtbl.mem exposed_old and vis_new = Hashtbl.mem exposed_new in
  let shift = fp.Update.fp_new_hi - fp.Update.fp_old_hi in
  let rec stable i stop shift =
    if i >= stop then Ok ()
    else if vis_old i <> vis_new (i + shift) then ref_denied i
    else stable (i + 1) stop shift
  in
  let* () = first_hidden vis_new fp.Update.fp_lo fp.Update.fp_new_hi in
  let* () = stable 0 fp.Update.fp_lo 0 in
  stable fp.Update.fp_old_hi (Tree.n_nodes old_tree) shift

(* The engine's staged pipeline with the reference checks in place of
   [Update]'s: the new tree, or the error the engine must report. *)
let reference_update ~dtd view tree r =
  let* () = Update.validate tree r in
  let* () = reference_precheck view tree r in
  let* new_tree, fp = Update.apply tree r in
  let* () =
    match Validator.validate dtd new_tree with
    | Ok () -> Ok ()
    | Error _ -> Error (Err.Parse_error { loc = None; msg = "" })
  in
  let* () = reference_postcheck view ~old_tree:tree ~new_tree fp in
  Ok new_tree

let verdict = function
  | Ok () -> "allowed"
  | Error (Err.Update_denied { node; _ }) -> Printf.sprintf "denied at %d" node
  | Error (Err.Parse_error _) -> "parse error"
  | Error (Err.Query_error _) -> "query error"
  | Error (Err.Policy_error _) -> "policy error"
  | Error (Err.Budget_exceeded _) -> "budget exceeded"
  | Error (Err.Io_error _) -> "io error"
  | Error (Err.Internal _) -> "internal"

let op_of = function
  | Update.R_delete n -> Update.Delete (Update.By_id n)
  | Update.R_replace (n, src) -> Update.Replace (Update.By_id n, src)
  | Update.R_insert { parent; before; source } ->
    Update.Insert { parent = Update.By_id parent; before; source }

(* A random member edit.  Half the targets are exposed nodes and half the
   replacements reuse material of the same kind (another node of the
   same tag, or another text), so the draws mix legal writes with
   precheck denials, postcheck denials (a replaced text that flips a
   [q]) and DTD rejections. *)
let member_edit rng view doc =
  let n_nodes = Tree.n_nodes doc in
  let exposed = (Materialize.materialize view doc).Materialize.provenance in
  let target () =
    if Random.State.bool rng then
      exposed.(Random.State.int rng (Array.length exposed))
    else Random.State.int rng n_nodes
  in
  let same_kind n =
    let rec find tries =
      let m = Random.State.int rng n_nodes in
      if tries = 0 then n
      else if Tree.is_text doc n && Tree.is_text doc m then m
      else if
        Tree.is_element doc n && Tree.is_element doc m
        && Tree.name doc n = Tree.name doc m
      then m
      else find (tries - 1)
    in
    find 30
  in
  match Random.State.int rng 5 with
  | 0 -> random_edit rng doc
  | 1 ->
    let n = target () in
    Update.R_replace (n, Tree.to_source doc n)
  | 2 ->
    let n = target () in
    Update.R_replace (n, Tree.to_source doc (same_kind n))
  | 3 ->
    let n = target () in
    if n = Tree.root then Update.R_replace (n, Tree.to_source doc n)
    else Update.R_delete n
  | _ ->
    let n = target () in
    (match Tree.parent doc n with
    | None -> Update.R_replace (n, Tree.to_source doc n)
    | Some p ->
      Update.R_insert
        { parent = p; before = Some n;
          source = Tree.to_source doc (same_kind n) })

(* [steps] member edits on one engine; each verdict is checked against
   the reference on the engine's current document, and an allowed edit
   must leave the reference's new tree.  Returns (allowed, denied). *)
let differential_legality label ~dtd ~policy ~seed ~steps doc =
  let engine = okr (Engine.of_tree ~dtd doc) in
  match Engine.register_policy engine ~group:"members" policy with
  | Error _ -> (0, 0) (* derivation unsupported for this draw *)
  | Ok () ->
    let view = Option.get (Engine.view engine ~group:"members") in
    let rng = Random.State.make [| seed |] in
    let allowed = ref 0 and denied = ref 0 in
    for step = 1 to steps do
      let tree = Engine.document engine in
      let r = member_edit rng view tree in
      let expected = reference_update ~dtd view tree r in
      let got = Engine.update_robust engine ~group:"members" (op_of r) in
      let label = Printf.sprintf "%s step %d" label step in
      Alcotest.(check string) (label ^ ": verdict")
        (verdict (Result.map ignore expected))
        (verdict (Result.map ignore got));
      match expected with
      | Ok new_tree ->
        incr allowed;
        Alcotest.(check bool) (label ^ ": same new document") true
          (Tree.equal new_tree (Engine.document engine))
      | Error (Err.Update_denied _) -> incr denied
      | Error _ -> ()
    done;
    (!allowed, !denied)

let test_member_legality_differential () =
  let allowed = ref 0 and denied = ref 0 in
  let tally (a, d) =
    allowed := !allowed + a;
    denied := !denied + d
  in
  for seed = 1 to 4 do
    let doc =
      Hospital.generate ~seed:(seed + 40) ~n_patients:6 ~recursion_depth:2 ()
    in
    tally
      (differential_legality
         (Printf.sprintf "hospital seed %d" seed)
         ~dtd:Hospital.dtd ~policy:Hospital.policy ~seed ~steps:40 doc)
  done;
  for seed = 1 to 60 do
    let dtd =
      Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
        ~recursion:(seed mod 2 = 0) ()
    in
    let policy = Random_dtd.random_policy ~seed:((seed * 3) + 1) dtd in
    match Docgen.generate ~seed:((seed * 5) + 2) ~max_depth:8 ~fanout:2 dtd with
    | exception Docgen.No_finite_expansion _ -> ()
    | doc ->
      tally
        (differential_legality
           (Printf.sprintf "random seed %d" seed)
           ~dtd ~policy ~seed ~steps:10 doc)
  done;
  (* the draws must exercise both outcomes *)
  Alcotest.(check bool) "some member writes allowed" true (!allowed > 50);
  Alcotest.(check bool) "some member writes denied" true (!denied > 50)

(* Writes that flip a qualifier of an exposed top-level patient: the
   patient's only autism medication replaced by another medication, or
   deleted.  The medication itself is exposed, so the precheck passes;
   the patient's [visit/treatment/medication = 'autism'] qualifier flips
   and hides the patient with all it holds.  The replace is denied at
   the new medication (it cannot be read back); the delete leaves
   nothing new to read back, so the side-effect guard must deny it, at
   the patient — the first node whose visibility changes. *)
let test_qualifier_flip_denied () =
  let doc = Hospital.generate ~seed:21 ~n_patients:12 ~recursion_depth:2 () in
  let view = Derive.derive Hospital.policy in
  let elems n tag =
    List.filter
      (fun c -> Tree.is_element doc c && Tree.name doc c = tag)
      (Tree.children doc n)
  in
  let autism_meds p =
    List.concat_map
      (fun v ->
        List.concat_map (fun tr -> elems tr "medication") (elems v "treatment"))
      (elems p "visit")
    |> List.filter (fun m -> Tree.value doc m = "autism")
  in
  let patient, med =
    match
      List.find_map
        (fun p -> match autism_meds p with [ m ] -> Some (p, m) | _ -> None)
        (elems Tree.root "patient")
    with
    | Some found -> found
    | None -> Alcotest.fail "no patient with exactly one autism medication"
  in
  let postcheck label r ~want =
    Alcotest.(check string) (label ^ ": the precheck passes") "allowed"
      (verdict (Update.precheck ~view doc r));
    let new_tree, fp = okr (Update.apply doc r) in
    Alcotest.(check string) (label ^ ": postcheck") want
      (verdict (Update.postcheck ~view ~old_tree:doc ~new_tree fp));
    Alcotest.(check string) (label ^ ": the reference agrees") want
      (verdict (reference_postcheck view ~old_tree:doc ~new_tree fp))
  in
  let replace =
    Update.R_replace (med, Tree.E ("medication", [], [ Tree.T "headache" ]))
  in
  postcheck "replace" replace ~want:(Printf.sprintf "denied at %d" med);
  postcheck "delete" (Update.R_delete med)
    ~want:(Printf.sprintf "denied at %d" patient);
  let engine = okr (Engine.of_tree ~dtd:Hospital.dtd doc) in
  ok (Engine.register_policy engine ~group:"members" Hospital.policy);
  Alcotest.(check string) "the engine denies the replace"
    (Printf.sprintf "denied at %d" med)
    (verdict
       (Result.map ignore
          (Engine.update_robust engine ~group:"members" (op_of replace))));
  Alcotest.(check bool) "document untouched" true
    (Engine.document engine == doc)

(* The postcheck alone against the reference, on random member edits of
   random schemas with conditional policies and no DTD gate in front, so
   that edits breaking the schema still reach the side-effect guard.
   Denials at a node outside the new range come from that guard; the
   draws must produce some. *)
let test_postcheck_differential () =
  let side_effects = ref 0 in
  for seed = 1 to 200 do
    let dtd =
      Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
        ~recursion:(seed mod 2 = 0) ()
    in
    match
      ( Derive.derive
          (Random_dtd.random_policy ~seed:((seed * 7) + 3) ~cond_ratio:0.6 dtd),
        Docgen.generate ~seed:((seed * 5) + 2) ~max_depth:8 ~fanout:2 dtd )
    with
    | exception (Derive.Unsupported _ | Docgen.No_finite_expansion _) -> ()
    | view, doc ->
      let rng = Random.State.make [| seed; 0x5eed |] in
      for step = 1 to 10 do
        let r = member_edit rng view doc in
        if Update.validate doc r = Ok () && reference_precheck view doc r = Ok ()
        then begin
          let new_tree, fp = okr (Update.apply doc r) in
          let want = reference_postcheck view ~old_tree:doc ~new_tree fp in
          Alcotest.(check string)
            (Printf.sprintf "seed %d step %d" seed step)
            (verdict want)
            (verdict (Update.postcheck ~view ~old_tree:doc ~new_tree fp));
          match want with
          | Error (Err.Update_denied { node; _ })
            when node < fp.Update.fp_lo || node >= fp.Update.fp_new_hi ->
            incr side_effects
          | _ -> ()
        end
      done
  done;
  Alcotest.(check bool) "side-effect denials seen" true (!side_effects > 20)

(* --- local DTD validation = full validation -------------------------------- *)

(* Material that breaks the schema in each way the validator reports: an
   undeclared tag, stray text, a declared tag over the wrong children, a
   declared tag with no children. *)
let off_schema rng doc =
  let rec element tries =
    let n = Random.State.int rng (Tree.n_nodes doc) in
    if Tree.is_element doc n || tries = 0 then n else element (tries - 1)
  in
  match Random.State.int rng 4 with
  | 0 -> Tree.E ("undeclared", [], [ Tree.T "x" ])
  | 1 -> Tree.T "stray"
  | 2 ->
    (match Tree.to_source doc (element 20) with
    | Tree.E (tag, attrs, kids) -> Tree.E (tag, attrs, List.rev kids @ kids)
    | text -> text)
  | _ -> Tree.E (Tree.name doc (element 20), [], [])

(* A random edit of [doc], with off-schema material half the time. *)
let schema_edit rng doc =
  match random_edit rng doc with
  | r when Random.State.bool rng -> r
  | Update.R_replace (n, _) -> Update.R_replace (n, off_schema rng doc)
  | Update.R_insert i -> Update.R_insert { i with source = off_schema rng doc }
  | Update.R_delete _ as r -> r

let show_errors = function
  | Ok () -> "valid"
  | Error es -> Fmt.str "%a" Fmt.(list ~sep:semi Validator.pp_error) es

(* On a valid base, checking the edit parent and the new range reports
   exactly what validating the whole candidate does; valid candidates
   become the next base.  Returns (valid, invalid) candidates seen. *)
let local_validation label dtd ~seed ~steps doc =
  let rng = Random.State.make [| seed; 0xd7d |] in
  let valid = ref 0 and invalid = ref 0 in
  let base = ref doc in
  for step = 1 to steps do
    let r = schema_edit rng !base in
    match Update.validate !base r with
    | Error _ -> ()
    | Ok () ->
      let nt, fp = okr (Update.apply !base r) in
      let full = Validator.validate dtd nt in
      Alcotest.(check string)
        (Printf.sprintf "%s step %d: local = full" label step)
        (show_errors full)
        (show_errors
           (Validator.validate_edit dtd nt ~parent:fp.Update.fp_parent
              ~lo:fp.Update.fp_lo ~hi:fp.Update.fp_new_hi));
      if Result.is_ok full then (incr valid; base := nt) else incr invalid
  done;
  (!valid, !invalid)

let test_local_validation () =
  let valid = ref 0 and invalid = ref 0 in
  let tally (v, i) =
    valid := !valid + v;
    invalid := !invalid + i
  in
  for seed = 1 to 10 do
    let doc = Hospital.generate ~seed ~n_patients:5 ~recursion_depth:2 () in
    tally
      (local_validation (Printf.sprintf "hospital seed %d" seed) Hospital.dtd
         ~seed ~steps:40 doc)
  done;
  for seed = 1 to 80 do
    let dtd =
      Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
        ~recursion:(seed mod 2 = 0) ()
    in
    match Docgen.generate ~seed:((seed * 5) + 2) ~max_depth:8 ~fanout:2 dtd with
    | exception Docgen.No_finite_expansion _ -> ()
    | doc when Validator.is_valid dtd doc ->
      tally
        (local_validation (Printf.sprintf "random seed %d" seed) dtd ~seed
           ~steps:15 doc)
    | _ -> Alcotest.failf "random seed %d: generated document invalid" seed
  done;
  Alcotest.(check bool) "valid candidates seen" true (!valid > 200);
  Alcotest.(check bool) "invalid candidates seen" true (!invalid > 200)

(* [of_tree] validates as the byte loaders do: a tree that breaks the
   DTD anywhere — off-schema material well away from any later edit — is
   refused with the validator's first error, and a conforming tree is
   served.  Without a DTD there is nothing to check. *)
let test_of_tree_validates () =
  let rng = Random.State.make [| 0xba5e |] in
  let refused = ref 0 and served = ref 0 in
  for seed = 1 to 40 do
    let doc = Hospital.generate ~seed ~n_patients:4 ~recursion_depth:1 () in
    let tree =
      let r = schema_edit rng doc in
      match Update.validate doc r with
      | Error _ -> doc
      | Ok () -> fst (okr (Update.apply doc r))
    in
    let label = Printf.sprintf "seed %d" seed in
    (match
       ( Validator.validate Hospital.dtd tree,
         Engine.of_tree ~dtd:Hospital.dtd tree )
     with
    | (Ok () | Error []), Ok _ -> incr served
    | Error (e :: _), Error (Err.Parse_error { loc = None; msg }) ->
      incr refused;
      Alcotest.(check string) (label ^ ": first error")
        (Fmt.str "document invalid: %a" Validator.pp_error e)
        msg
    | Error (_ :: _), Ok _ -> Alcotest.failf "%s: invalid tree served" label
    | _, Error e -> Alcotest.failf "%s: %s" label (Err.to_string e));
    match Engine.of_tree tree with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%s without a DTD: %s" label (Err.to_string e)
  done;
  Alcotest.(check bool) "invalid trees refused" true (!refused > 5);
  Alcotest.(check bool) "valid trees served" true (!served > 5)

(* --- legal delete-then-reinsert round-trips -------------------------------- *)

let test_delete_reinsert_roundtrip () =
  let doc = Hospital.generate ~seed:11 ~n_patients:4 ~recursion_depth:2 () in
  let engine = okr (Engine.of_tree ~dtd:Hospital.dtd doc) in
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
  let engine = okr (Engine.of_tree doc) in
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
  let engine = okr (Engine.of_tree ~dtd:Hospital.dtd doc) in
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
          Alcotest.test_case "mixed-content parent value recomputed" `Quick
            test_splice_mixed_parent_value;
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
          Alcotest.test_case "member verdicts = materialization reference"
            `Quick test_member_legality_differential;
          Alcotest.test_case "a flipped qualifier is denied" `Quick
            test_qualifier_flip_denied;
          Alcotest.test_case "postcheck = reference, no DTD gate" `Quick
            test_postcheck_differential;
        ] );
      ( "validation",
        [
          Alcotest.test_case "local DTD check = full validation" `Quick
            test_local_validation;
          Alcotest.test_case "of_tree rejects an invalid tree" `Quick
            test_of_tree_validates;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "disjoint plans survive" `Quick
            test_scoped_invalidation;
        ] );
    ]
