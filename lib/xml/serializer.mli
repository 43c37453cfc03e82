(** XML output: trees back to markup. *)

val escape_text : string -> string
(** Escape ampersands and angle brackets for character data. *)

val add_escaped_text : Buffer.t -> string -> int -> int -> unit
(** [add_escaped_text buf s off len] appends {!escape_text} of the slice
    [s[off, off+len)] to [buf], with no intermediate string — the clean
    (entity-free) case is a single substring append. *)

val add_escaped_attr : Buffer.t -> string -> int -> int -> unit
(** [add_escaped_text] that also escapes both quote characters, for
    attribute values. *)

val to_string : ?indent:bool -> ?decl:bool -> Tree.t -> string
(** Serialize a document.  [indent] (default [true]) pretty-prints with two
    spaces per level, keeping elements whose only child is text on one
    line.  [decl] (default [false]) emits an XML declaration. *)

val to_channel : ?indent:bool -> ?decl:bool -> out_channel -> Tree.t -> unit

val to_file : ?indent:bool -> ?decl:bool -> string -> Tree.t -> unit

val subtree_to_string : ?indent:bool -> Tree.t -> Tree.node -> string
(** Serialize a single subtree. *)
