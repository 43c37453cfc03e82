(* A persistent deployment: one document on disk, a policy per user
   group, sessions enforcing who sees what — across restarts.  Revoking a
   group's policy takes effect at once, even for sessions already open.

   Run with: dune exec examples/secure_store.exe *)

module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Store = Smoqe_store.Store
module Policy = Smoqe_security.Policy
module Hospital = Smoqe_workload.Hospital
module Error = Smoqe_robust.Error

let banner title = Printf.printf "\n=== %s ===\n" title

let ok = function Ok v -> v | Error msg -> failwith msg

(* A second group: billing sees visit dates but neither names nor medical
   content. *)
let billing_policy =
  ok
    (Policy.of_string Hospital.dtd
       "ann(patient, pname) = N\n\
        ann(visit, treatment) = N\n")

let () =
  let dir = Filename.temp_file "smoqe_demo_store" "" in
  Sys.remove dir;

  banner "initialize the store";
  let doc = Hospital.generate ~seed:404 ~n_patients:20 ~recursion_depth:2 () in
  let store = ok (Store.create ~dir ~dtd:Hospital.dtd doc) in
  ok (Store.add_policy store ~group:"researchers" Hospital.policy);
  ok (Store.add_policy store ~group:"billing" billing_policy);
  Printf.printf "created %s with groups: %s\n" dir
    (String.concat ", " (Store.groups store));

  banner "a restart later: reopen from disk";
  let store = ok (Store.open_dir dir) in
  Printf.printf "document: %d nodes; index loaded: %b; groups: %s\n"
    (Smoqe_xml.Tree.n_nodes (Engine.document (Store.engine store)))
    (Engine.index (Store.engine store) <> None)
    (String.concat ", " (Store.groups store));

  banner "three users, three worlds";
  let admin = ok (Store.login store Session.Admin) in
  let researcher = ok (Store.login store (Session.Member "researchers")) in
  let billing = ok (Store.login store (Session.Member "billing")) in
  let count s q =
    match Session.run_robust s q with
    | Ok o -> string_of_int (List.length o.Engine.answers)
    | Error e -> "error: " ^ Error.to_string e
  in
  Printf.printf "%-22s %-10s %-12s %-10s\n" "query" "admin" "researcher"
    "billing";
  List.iter
    (fun q ->
      Printf.printf "%-22s %-10s %-12s %-10s\n" q (count admin q)
        (count researcher q) (count billing q))
    [ "//pname"; "//medication"; "//date"; "//patient" ];

  banner "static refusal: the schema knows before the data is read";
  (match Session.run_robust researcher "//pname" with
  | Ok o ->
    Printf.printf
      "researcher //pname: %d answers, %d passes over the document \
       (rejected against the view schema)\n"
      (List.length o.Engine.answers)
      o.Engine.stats.Smoqe_hype.Stats.passes_over_data
  | Error e -> failwith (Error.to_string e));

  banner "policy revocation";
  ok (Store.remove_policy store ~group:"billing");
  (match Store.login store (Session.Member "billing") with
  | Error msg -> Printf.printf "billing login now fails: %s\n" msg
  | Ok _ -> failwith "revoked group can still log in");
  (match Session.run_robust billing "//date" with
  | Error e ->
    Printf.printf "billing's open session is refused too: %s\n"
      (Error.to_string e)
  | Ok _ -> failwith "revoked group's open session still answers");

  (* tidy up the temp store *)
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  rm_rf dir
