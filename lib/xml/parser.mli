(** DOM parsing: the {!Pull} cursor built into a {!Tree}, and a tree's
    event sequence back out. *)

val tree_of_string :
  ?keep_ws:bool -> ?budget:Smoqe_robust.Budget.t -> string -> Tree.t
(** Parse a complete document.  Raises {!Pull.Error} on malformed input
    and [Smoqe_robust.Budget.Exceeded] when [budget] trips. *)

val tree_of_file :
  ?keep_ws:bool -> ?budget:Smoqe_robust.Budget.t -> string -> Tree.t

val tree_of_string_res :
  ?keep_ws:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  string ->
  (Tree.t, string) result
(** Like {!tree_of_string}, but parse errors (with line/column) and
    malformed structure come back as [Error] instead of raising.  Budget
    trips come back as [Error] too (rendered); pathological nesting is
    not an error at all — tree construction is worklist-based, so only
    the [max_depth] budget limits depth.  Exceptions other than the parse
    path's own ([Pull.Error], [Sys_error], budget and failpoint trips)
    are {e not} swallowed. *)

val tree_of_file_res :
  ?keep_ws:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  string ->
  (Tree.t, string) result
(** Like {!tree_of_file}; error messages are prefixed ["file:line:col:"]. *)

val events_of_tree : Tree.t -> Pull.event list
(** The event stream a streaming parse of the serialized tree would
    produce (text nodes emitted as-is).  A reference for tests and the
    fuzz harness (DOM ≡ StAX); query serving never builds it — StAX scans
    a parser cursor, and a held tree is evaluated by the DOM driver.
    Worklist-based: safe on arbitrarily deep documents. *)
