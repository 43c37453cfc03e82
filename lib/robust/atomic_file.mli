(** Whole-file writes that never leave a torn file. *)

val write : ?failpoint:string -> string -> string -> unit
(** [write path contents] writes [contents] to a fresh temporary file in
    [path]'s directory and renames it over [path], so a reader (or a
    crash) sees the old file or the new one, never part of either.  The
    temporary file is fsynced before the rename and the directory after
    it, so a write that returned survives a power loss.  When
    the write fails — [Sys_error], or the armed [failpoint] site, which
    is triggered after part of the temporary file is written — the
    temporary file is removed, [path] is untouched and the exception is
    re-raised. *)
