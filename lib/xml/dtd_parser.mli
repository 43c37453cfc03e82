(** Parser for DTD syntax.

    Accepts either a full [<!DOCTYPE root [ ... ]>] declaration or a bare
    sequence of [<!ELEMENT ...>] declarations (the root then defaults to
    the first declared element, or to [root] when given).  Comments and
    whitespace are skipped; attribute-list and entity declarations inside
    the internal subset are ignored. *)

exception Error of int * string
(** [Error (offset, message)]: syntax error at a byte offset. *)

val of_string : ?root:string -> string -> Dtd.t
(** May raise {!Error}, or [Invalid_argument] for inconsistent
    declarations (see {!Dtd.create}). *)
