(** DTD validation of documents, via Brzozowski derivatives of the content
    models.  Used to check generated documents, materialized views against
    the derived view DTD, and user inputs. *)

type error = {
  node : Tree.node;
  element : string;  (** the offending element's tag *)
  message : string;
}

val validate : Dtd.t -> Tree.t -> (unit, error list) result
(** All violations, in document order: undeclared element types, root-type
    mismatch, children sequences not matching the content model, and text
    where the content model forbids it. *)

val validate_edit :
  Dtd.t -> Tree.t -> parent:Tree.node -> lo:Tree.node -> hi:Tree.node ->
  (unit, error list) result
(** [validate] of a tree made from a {e valid} one by one subtree edit
    that changed the children of [parent] ([-1]: the root itself was
    replaced) and left the new material at ids [\[lo, hi)].  An
    element's check reads only its own children, so the tree's errors can
    only sit at the root type, at [parent] and inside the range: only
    those are checked, and the result is exactly [validate]'s.  On a base
    not known to be valid, use [validate]. *)

val is_valid : Dtd.t -> Tree.t -> bool

val pp_error : Format.formatter -> error -> unit

val matches : Dtd.regex -> string list -> bool
(** [matches r names]: does the word of element names match the content
    regex?  ([Pcdata] in [r] matches the pseudo-name ["#text"].) *)
