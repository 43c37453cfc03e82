module Dtd = Smoqe_xml.Dtd
module Dtd_parser = Smoqe_xml.Dtd_parser
module Serializer = Smoqe_xml.Serializer
module Policy = Smoqe_security.Policy
module Derive = Smoqe_security.Derive
module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Failpoint = Smoqe_robust.Failpoint
module Atomic_file = Smoqe_robust.Atomic_file

type t = {
  dir : string;
  dtd : Dtd.t option;
  mutable groups : string list; (* registration order preserved *)
  engine : Engine.t;
}

let manifest_name = "MANIFEST"
let document_name = "document.xml"
let dtd_name = "document.dtd"
let index_name = "document.tax"
let policies_dir = "policies"

let ( / ) = Filename.concat

let read_file path =
  match
    Failpoint.trigger "store.read";
    open_in_bin path
  with
  | exception Sys_error msg -> Error msg
  | exception Failpoint.Injected site ->
    Error (path ^ ": injected fault at " ^ site)
  | ic ->
    let result =
      try Ok (really_input_string ic (in_channel_length ic))
      with End_of_file -> Error (path ^ ": truncated")
    in
    close_in_noerr ic;
    result

let write_file path contents =
  match Atomic_file.write ~failpoint:"store.write" path contents with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg
  | exception Failpoint.Injected site ->
    Error (path ^ ": injected fault at " ^ site)

let ( let* ) = Result.bind

let valid_group g =
  g <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-')
       g

(* The manifest is the inventory: one "key value..." line per entry. *)
let render_manifest ~has_dtd groups =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "smoqe-store 1\n";
  Buffer.add_string buf (Printf.sprintf "document %s\n" document_name);
  if has_dtd then
    Buffer.add_string buf (Printf.sprintf "dtd %s\n" dtd_name);
  Buffer.add_string buf (Printf.sprintf "index %s\n" index_name);
  List.iter
    (fun group ->
      Buffer.add_string buf
        (Printf.sprintf "policy %s %s\n" group
           (policies_dir ^ "/" ^ group ^ ".policy")))
    groups;
  Buffer.contents buf

let save_manifest t groups =
  write_file (t.dir / manifest_name)
    (render_manifest ~has_dtd:(t.dtd <> None) groups)

let prepare_engine dir engine policies =
  let* () =
    List.fold_left
      (fun acc (group, policy) ->
        let* () = acc in
        Engine.register_policy engine ~group policy)
      (Ok ()) policies
  in
  (match Engine.load_index engine (dir / index_name) with
  | Ok () -> ()
  | Error _ ->
    (* index missing, stale or unreadable: rebuild in memory and try to
       rewrite it.  A failed rewrite only degrades persistence — the store
       still opens and serves (indexed) queries; the next open rebuilds. *)
    Engine.build_index engine;
    (match Engine.save_index engine (dir / index_name) with
    | Ok () -> ()
    | Error _ -> ()));
  Ok engine

let parse_manifest contents =
  let lines =
    String.split_on_char '\n' contents
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | "smoqe-store 1" :: rest ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        (match String.split_on_char ' ' line with
        | [ "document"; _ ] | [ "dtd"; _ ] | [ "index"; _ ] ->
          go acc rest
        | [ "policy"; group; path ] -> go ((group, path) :: acc) rest
        | _ -> Error (Printf.sprintf "bad manifest line: %s" line))
    in
    go [] rest
  | _ -> Error "not a SMOQE store (bad manifest header)"

let open_dir dir =
  let* manifest = read_file (dir / manifest_name) in
  let* policy_entries = parse_manifest manifest in
  let* dtd =
    if Sys.file_exists (dir / dtd_name) then begin
      let* dtd_text = read_file (dir / dtd_name) in
      match Dtd_parser.of_string dtd_text with
      | dtd -> Ok (Some dtd)
      | exception Dtd_parser.Error (off, msg) ->
        Error (Printf.sprintf "%s: offset %d: %s" dtd_name off msg)
      | exception Invalid_argument msg -> Error (dtd_name ^ ": " ^ msg)
    end
    else Ok None
  in
  (* The engine's own loader: the document is validated against the DTD,
     and StAX requests scan the file. *)
  let* engine =
    Engine.of_file_robust ?dtd (dir / document_name)
    |> Result.map_error (fun e ->
           document_name ^ ": " ^ Smoqe_robust.Error.to_string e)
  in
  let* policies =
    List.fold_left
      (fun acc (group, path) ->
        let* acc = acc in
        let* text = read_file (dir / path) in
        match dtd with
        | None -> Error "store has policies but no DTD"
        | Some d ->
          let* policy = Policy.of_string d text in
          Ok ((group, policy) :: acc))
      (Ok []) policy_entries
  in
  let policies = List.rev policies in
  let* engine = prepare_engine dir engine policies in
  Ok { dir; dtd; groups = List.map fst policies; engine }

let create ~dir ?dtd tree =
  let* () =
    if Sys.file_exists dir then
      if Sys.is_directory dir then
        if Sys.file_exists (dir / manifest_name) then
          Error (dir ^ ": already a SMOQE store")
        else Ok ()
      else Error (dir ^ ": not a directory")
    else begin
      match Sys.mkdir dir 0o755 with
      | () -> Ok ()
      | exception Sys_error msg -> Error msg
    end
  in
  let* () =
    match dtd with
    | None -> Ok ()
    | Some d ->
      (match Smoqe_xml.Validator.validate d tree with
      | Ok () -> write_file (dir / dtd_name) (Dtd.to_string d)
      | Error (e :: _) ->
        Error (Fmt.str "document invalid: %a" Smoqe_xml.Validator.pp_error e)
      | Error [] -> Ok ())
  in
  let* () =
    write_file (dir / document_name)
      (Serializer.to_string ~indent:false ~decl:true tree)
  in
  (match Sys.mkdir (dir / policies_dir) 0o755 with
  | () -> ()
  | exception Sys_error _ -> ());
  let* () =
    write_file (dir / manifest_name)
      (render_manifest ~has_dtd:(dtd <> None) [])
  in
  (* Served as any store is: the loader reads the file back, and builds
     and saves the index. *)
  open_dir dir

let dir t = t.dir
let engine t = t.engine
let groups t = t.groups

(* The engine is asked first, so a policy it refuses writes nothing.  A
   failed write then puts the group's previous policy back, or removes a
   group that had none: an [Error] leaves the live engine serving what a
   reopen of the store serves. *)
let add_policy t ~group policy =
  if not (valid_group group) then
    Error (Printf.sprintf "invalid group name %S" group)
  else begin
    let previous = Option.bind (Engine.view t.engine ~group) Derive.policy in
    let* () = Engine.register_policy t.engine ~group policy in
    let file = t.dir / policies_dir / (group ^ ".policy") in
    let listed = List.mem group t.groups in
    let groups = if listed then t.groups else t.groups @ [ group ] in
    let written =
      let* () = write_file file (Policy.to_string policy) in
      if listed then Ok () else save_manifest t groups
    in
    (match written with
    | Ok () -> t.groups <- groups
    | Error _ ->
      (* a file the manifest does not list is read by no open *)
      if not listed then (try Sys.remove file with Sys_error _ -> ());
      (match previous with
      | Some p -> ignore (Engine.register_policy t.engine ~group p)
      | None -> Engine.remove_policy t.engine ~group));
    written
  end

let remove_policy t ~group =
  if not (List.mem group t.groups) then
    Error (Printf.sprintf "no policy for group %s" group)
  else begin
    (* The manifest write is the commit: a failed one leaves the group
       listed, its file in place and its policy live. *)
    let groups = List.filter (( <> ) group) t.groups in
    let* () = save_manifest t groups in
    t.groups <- groups;
    (try Sys.remove (t.dir / policies_dir / (group ^ ".policy"))
     with Sys_error _ -> ());
    (* Revoke on the live engine: committed updates stay, and sessions of
       the removed group fail from their next request on. *)
    Engine.remove_policy t.engine ~group;
    Ok ()
  end

let login t role = Session.login t.engine role
