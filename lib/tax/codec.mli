(** Compressed on-disk form of the TAX index.

    The paper's indexer "constructs the TAX index, compresses it before it
    is stored in disk, and uploads it from disk when needed".  The format
    exploits the index's redundancy: distinct descendant-type sets are
    interned into a dictionary (leaves share the empty set, repeated record
    shapes share rows), rows are stored as delta-encoded bit positions, and
    the per-node row references are run-length encoded.  All integers are
    LEB128 varints, so the encoding is independent of the word size. *)

val to_bytes : Tax.t -> bytes

val of_bytes : bytes -> (Tax.t, string) result
(** Fails with a message on a corrupt or truncated buffer. *)

val save : string -> Tax.t -> unit
(** Write to a file, atomically: a temporary file renamed into place
    ({!Smoqe_robust.Atomic_file}), so a failed save leaves the old file.
    Raises [Sys_error] on IO failure. *)

val load : string -> (Tax.t, string) result
