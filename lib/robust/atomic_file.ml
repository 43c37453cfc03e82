(* [fsync] failures surface as the [Sys_error] the write path already
   reports, not as [Unix.Unix_error]. *)
let fsync path fd =
  try Unix.fsync fd
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": fsync: " ^ Unix.error_message e))

(* The rename is durable once the directory entry is: fsync the
   directory.  Some file systems refuse to open or fsync a directory;
   there the rename stands as the file system keeps it. *)
let sync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

let write ?failpoint path contents =
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:dir ("." ^ Filename.basename path) ".tmp"
  in
  match
    let half = String.length contents / 2 in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_substring oc contents 0 half;
        Option.iter
          (fun site ->
            flush oc;
            Failpoint.trigger site)
          failpoint;
        output_substring oc contents half (String.length contents - half);
        flush oc;
        fsync tmp (Unix.descr_of_out_channel oc);
        close_out oc);
    Sys.rename tmp path
  with
  | () -> sync_dir dir
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
