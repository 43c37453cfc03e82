(* Tests for the on-disk store: create/open round-trips, policy
   persistence, index reuse, corruption handling. *)

module Tree = Smoqe_xml.Tree
module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Store = Smoqe_store.Store
module Hospital = Smoqe_workload.Hospital

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let okr = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Smoqe_robust.Error.to_string e)

let fresh_dir () =
  let path = Filename.temp_file "smoqe_store" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_store f =
  let dir = fresh_dir () in
  let doc = Hospital.generate ~seed:55 ~n_patients:6 ~recursion_depth:2 () in
  let store = ok (Store.create ~dir ~dtd:Hospital.dtd doc) in
  let finally () = if Sys.file_exists dir then rm_rf dir in
  Fun.protect ~finally (fun () -> f dir doc store)

let test_create_layout () =
  with_store (fun dir _ _ ->
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " exists") true
            (Sys.file_exists (Filename.concat dir f)))
        [ "MANIFEST"; "document.xml"; "document.dtd"; "document.tax" ])

let test_create_twice_refused () =
  with_store (fun dir doc _ ->
      match Store.create ~dir doc with
      | Error msg ->
        Alcotest.(check bool) "mentions store" true
          (String.length msg > 0)
      | Ok _ -> Alcotest.fail "re-created over an existing store")

let test_open_roundtrip () =
  with_store (fun dir doc store ->
      ok (Store.add_policy store ~group:"researchers" Hospital.policy);
      let reopened = ok (Store.open_dir dir) in
      Alcotest.(check (list string)) "groups" [ "researchers" ]
        (Store.groups reopened);
      let engine = Store.engine reopened in
      Alcotest.(check bool) "document equal" true
        (Tree.equal doc (Engine.document engine));
      Alcotest.(check bool) "index loaded" true (Engine.index engine <> None);
      (* the view works after reopening *)
      let session =
        ok (Store.login reopened (Session.Member "researchers"))
      in
      let direct = ok (Store.login reopened Session.Admin) in
      let count s q =
        List.length (okr (Session.run_robust s q)).Engine.answers
      in
      Alcotest.(check int) "names hidden through the view" 0
        (count session "//pname");
      Alcotest.(check bool) "admin sees names" true (count direct "//pname" > 0))

let test_policy_files_persisted () =
  with_store (fun dir _ store ->
      ok (Store.add_policy store ~group:"researchers" Hospital.policy);
      let path = Filename.concat dir "policies/researchers.policy" in
      Alcotest.(check bool) "policy file" true (Sys.file_exists path);
      ok (Store.remove_policy store ~group:"researchers");
      Alcotest.(check bool) "policy file removed" false (Sys.file_exists path);
      Alcotest.(check (list string)) "no groups" [] (Store.groups store))

(* Revocation acts on the live engine: a committed update survives it, an
   open member session of the removed group is refused from its next
   request on, and admins before and after see the same document. *)
let test_remove_policy_revokes_in_place () =
  with_store (fun _ _ store ->
      ok (Store.add_policy store ~group:"researchers" Hospital.policy);
      let member = ok (Store.login store (Session.Member "researchers")) in
      let admin = ok (Store.login store Session.Admin) in
      ignore (okr (Session.run_robust member "//medication"));
      let nodes () = Tree.n_nodes (Engine.document (Store.engine store)) in
      let patients s =
        (okr (Session.run_robust s "//patient")).Engine.answers
      in
      let victim =
        List.hd (okr (Session.run_robust admin "patient")).Engine.answers
      in
      let report =
        okr
          (Session.update_robust admin
             (Smoqe_update.Update.Delete (Smoqe_update.Update.By_id victim)))
      in
      Alcotest.(check bool) "the delete shrank the document" true
        (report.Engine.up_nodes_after < report.Engine.up_nodes_before);
      ok (Store.remove_policy store ~group:"researchers");
      Alcotest.(check int) "the engine keeps the updated node count"
        report.Engine.up_nodes_after (nodes ());
      (match Session.run_robust member "//medication" with
      | Error (Smoqe_robust.Error.Policy_error _) -> ()
      | Error e ->
        Alcotest.failf "wrong error: %s" (Smoqe_robust.Error.to_string e)
      | Ok o ->
        Alcotest.failf "revoked session answered (%d answers)"
          (List.length o.Engine.answers));
      let admin_after = ok (Store.login store Session.Admin) in
      Alcotest.(check int) "admins before and after agree"
        (List.length (patients admin))
        (List.length (patients admin_after)))

let test_bad_group_name () =
  with_store (fun _ _ store ->
      match Store.add_policy store ~group:"../evil" Hospital.policy with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "path traversal accepted")

let test_remove_unknown_policy () =
  with_store (fun _ _ store ->
      match Store.remove_policy store ~group:"nope" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "removed a phantom policy")

let test_index_rebuilt_when_corrupt () =
  with_store (fun dir _ _ ->
      let index_path = Filename.concat dir "document.tax" in
      let oc = open_out index_path in
      output_string oc "garbage";
      close_out oc;
      let reopened = ok (Store.open_dir dir) in
      Alcotest.(check bool) "index rebuilt" true
        (Engine.index (Store.engine reopened) <> None);
      (* and the rebuilt index was persisted in valid form *)
      match Smoqe_tax.Codec.load index_path with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("rewritten index unreadable: " ^ msg))

let test_open_not_a_store () =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  let finally () = rm_rf dir in
  Fun.protect ~finally (fun () ->
      match Store.open_dir dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "opened an empty directory")

let test_manifest_corruption () =
  with_store (fun dir _ _ ->
      let oc = open_out (Filename.concat dir "MANIFEST") in
      output_string oc "not a manifest\n";
      close_out oc;
      match Store.open_dir dir with
      | Error msg ->
        Alcotest.(check bool) "mentions manifest" true
          (String.length msg > 0)
      | Ok _ -> Alcotest.fail "opened a corrupt store")

(* A store serves only what its DTD admits: an element the DTD does not
   declare, slipped into document.xml, fails the open.  Served as given,
   it would be invisible to an admin's [//secret] (statically empty
   against the DTD) yet copied into a member's [patient] fragments. *)
let test_invalid_document_refused () =
  let dir = fresh_dir () in
  let doc = Hospital.generate ~seed:3 ~n_patients:4 ~recursion_depth:2 () in
  let store = ok (Store.create ~dir ~dtd:Hospital.dtd doc) in
  let finally () = if Sys.file_exists dir then rm_rf dir in
  Fun.protect ~finally (fun () ->
      ok (Store.add_policy store ~group:"staff" Hospital.policy);
      let path = Filename.concat dir "document.xml" in
      let text = In_channel.with_open_bin path In_channel.input_all in
      let corrupt =
        Str_replace.replace text "<pname>" "<secret>boom</secret><pname>"
      in
      Alcotest.(check bool) "secret inserted" false (corrupt = text);
      Out_channel.with_open_bin path (fun oc -> output_string oc corrupt);
      match Store.open_dir dir with
      | Error msg ->
        Alcotest.(check bool) ("names the document: " ^ msg) true
          (String.starts_with ~prefix:"document.xml: " msg)
      | Ok _ -> Alcotest.fail "opened a store whose document is invalid")

(* A reopened store's engine holds the document file, so a StAX request
   scans its bytes rather than falling back to the DOM driver. *)
let test_stax_reads_file () =
  with_store (fun dir _ created ->
      let check label store =
        let admin = ok (Store.login store Session.Admin) in
        let dom = okr (Session.run_robust admin "//pname") in
        let stax =
          Smoqe_robust.Failpoint.with_failpoints "pull.read=1000000000"
            (fun () ->
              let o =
                okr (Session.run_robust admin ~mode:Engine.Stax "//pname")
              in
              Alcotest.(check bool) (label ^ ": pull.read reached") true
                (Smoqe_robust.Failpoint.triggers "pull.read" > 0);
              o)
        in
        Alcotest.(check int) (label ^ ": no DOM retry") 0
          stax.Engine.stats.Smoqe_hype.Stats.degraded_stax_retry;
        Alcotest.(check (list string)) (label ^ ": same fragments as DOM")
          dom.Engine.answer_xml stax.Engine.answer_xml
      in
      check "created" created;
      check "reopened" (ok (Store.open_dir dir)))

let () =
  Alcotest.run "smoqe_store"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "layout" `Quick test_create_layout;
          Alcotest.test_case "create twice" `Quick test_create_twice_refused;
          Alcotest.test_case "open roundtrip" `Quick test_open_roundtrip;
          Alcotest.test_case "policy persistence" `Quick
            test_policy_files_persisted;
          Alcotest.test_case "remove_policy revokes in place" `Quick
            test_remove_policy_revokes_in_place;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "bad group name" `Quick test_bad_group_name;
          Alcotest.test_case "remove unknown" `Quick test_remove_unknown_policy;
          Alcotest.test_case "corrupt index" `Quick
            test_index_rebuilt_when_corrupt;
          Alcotest.test_case "not a store" `Quick test_open_not_a_store;
          Alcotest.test_case "corrupt manifest" `Quick test_manifest_corruption;
          Alcotest.test_case "invalid document refused" `Quick
            test_invalid_document_refused;
          Alcotest.test_case "stax reads the file" `Quick test_stax_reads_file;
        ] );
    ]
