(* Chaos harness: the full query pipeline under environment-armed
   failpoints.  Run via [dune build @chaos], which sets SMOQE_FAILPOINTS
   so faults fire at parser reads, store writes and HyPE step boundaries.

   The single invariant: no exception ever escapes the façade.  Every
   operation below must come back [Ok] (possibly after internal
   degradation) or [Error] — an escaped exception fails the run.  *)

module Serializer = Smoqe_xml.Serializer
module Tree = Smoqe_xml.Tree
module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Store = Smoqe_store.Store
module Failpoint = Smoqe_robust.Failpoint
module Update = Smoqe_update.Update
module Hospital = Smoqe_workload.Hospital

let runs = ref 0
let faulted = ref 0
let escaped = ref 0
let torn = ref 0

let attempt label f =
  incr runs;
  match f () with
  | Ok _ -> ()
  | Error _ -> incr faulted
  | exception ex ->
    incr escaped;
    Printf.eprintf "ESCAPED %s: %s\n%!" label (Printexc.to_string ex)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
    end
    else (try Sys.remove path with Sys_error _ -> ())

let () =
  if not (Failpoint.active ()) then
    prerr_endline
      "note: no failpoints armed (set SMOQE_FAILPOINTS or use `dune build \
       @chaos`) — running anyway";
  let queries = [ "//pname"; "//medication"; Smoqe_workload.Queries.q0 ] in
  for i = 1 to 40 do
    let doc = Hospital.generate ~seed:i ~n_patients:4 ~recursion_depth:2 () in
    let xml = Serializer.to_string doc in
    (* engine construction may hit pull.read faults: an Error is fine *)
    (match Engine.of_string_robust ~dtd:Hospital.dtd xml with
    | exception ex ->
      incr escaped;
      Printf.eprintf "ESCAPED of_string: %s\n%!" (Printexc.to_string ex)
    | Error _ -> incr faulted
    | Ok e ->
      attempt "register_policy" (fun () ->
          Engine.register_policy e ~group:"researchers" Hospital.policy);
      (match Session.login e Session.Admin with
      | Error _ -> incr faulted
      | Ok admin ->
        List.iter
          (fun q ->
            attempt ("dom " ^ q) (fun () ->
                Session.run_robust admin ~mode:Engine.Dom q);
            attempt ("stax " ^ q) (fun () ->
                Session.run_robust admin ~mode:Engine.Stax q))
          queries);
      (* the write path under update.apply / update.invalidate faults:
         an update either fully applies or fully rejects.  Identity
         replaces keep the document content byte-stable, so whatever
         mix of injected faults and successes the loop saw, a probe
         query must still answer exactly its pre-update baseline — a
         mismatch is torn tree/TAX/table state, the thing the
         pre-publish failpoint placement forbids. *)
      Engine.build_index e;
      let probe = "//pname" in
      let baseline =
        match Engine.query_robust e probe with
        | Ok o -> Some o.Engine.answer_xml
        | Error _ -> None  (* the probe itself was faulted: skip compare *)
      in
      for k = 1 to 6 do
        let d = Engine.document e in
        let n = 1 + ((k * 37) + i) mod (Tree.n_nodes d - 1) in
        attempt "update.identity" (fun () ->
            Engine.update_robust e
              (Update.Replace (Update.By_id n, Tree.to_source d n)))
      done;
      (match baseline, Engine.query_robust e probe with
      | Some b, Ok o when o.Engine.answer_xml <> b ->
        incr torn;
        Printf.eprintf "TORN update state at iteration %d\n%!" i
      | _ -> ());
      (* entity/char references so pull.ref sites get exercised too *)
      attempt "refs" (fun () ->
          Smoqe_robust.Error.guard (fun () ->
              Smoqe_xml.Parser.tree_of_string
                "<r a=\"x&amp;y\">&lt;&#65;&#x42;&gt; &quot;&apos;</r>"));
      (* store lifecycle: create, reopen, query — under store.write faults *)
      let dir = Filename.temp_file "smoqe_chaos" "" in
      Sys.remove dir;
      (match Store.create ~dir ~dtd:Hospital.dtd doc with
      | exception ex ->
        incr escaped;
        Printf.eprintf "ESCAPED store.create: %s\n%!" (Printexc.to_string ex)
      | Error _ -> incr faulted
      | Ok store ->
        attempt "store.add_policy" (fun () ->
            Store.add_policy store ~group:"researchers" Hospital.policy);
        attempt "store.query" (fun () ->
            match Store.login store Session.Admin with
            | Error _ -> Error ()
            | Ok s ->
              Result.map_error ignore (Session.run_robust s "//medication"));
        attempt "store.reopen" (fun () -> Store.open_dir dir));
      rm_rf dir)
  done;
  Printf.printf
    "chaos: %d operations, %d surfaced faults, %d escaped exceptions\n"
    !runs !faulted !escaped;
  List.iter
    (fun site ->
      Printf.printf "  %-12s %5d triggers, %d hits\n" site
        (Failpoint.triggers site) (Failpoint.hits site))
    [ "pull.read"; "pull.depth"; "pull.ref"; "store.read"; "store.write";
      "hype.step"; "index.load"; "update.apply"; "update.invalidate" ];
  if Failpoint.active () then
    List.iter
      (fun site ->
        if Failpoint.hits site = 0 then begin
          Printf.eprintf "chaos: armed but %s never fired\n%!" site;
          exit 1
        end)
      [ "pull.read"; "pull.depth"; "pull.ref"; "update.apply";
        "update.invalidate" ];
  if !torn > 0 then begin
    Printf.eprintf "chaos: %d torn update states observed\n%!" !torn;
    exit 1
  end;
  if !escaped > 0 then exit 1
