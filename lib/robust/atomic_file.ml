let write ?failpoint path contents =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) ("." ^ Filename.basename path) ".tmp"
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
        close_out oc);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
