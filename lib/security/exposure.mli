(** What a security view exposes, computed without building the view.

    The σ-walk below is the one definition of "exposed": starting at the
    document root as the view DTD's root type, a visible node of type [A]
    exposes, for every type [B] the view shows under [A], the nodes
    [sigma A B] selects from it, and its own text children when the view
    DTD gives [A] text content.  {!Materialize} builds the view tree from
    this walk; {!compute} keeps only a bitmap over the document's
    pre-order ids, which is what update legality asks. *)

val walk :
  Derive.view ->
  Smoqe_xml.Tree.t ->
  text:(Smoqe_xml.Tree.node -> 'a) ->
  elem:(Smoqe_xml.Tree.node -> string -> (unit -> 'a list) -> 'a) ->
  'a
(** Visit the exposed nodes in view pre-order.  [elem n ty kids] is
    called for an exposed element [n] shown as type [ty]; forcing [kids]
    visits its view children (text and elements) in document order and
    returns their results.  [text n] is called for an exposed text node.
    Raises [Invalid_argument] when the document's root type is not the
    view DTD's root type. *)

type t
(** The exposure of one document under one view: a bitmap over the
    document's pre-order ids. *)

val compute : Derive.view -> Smoqe_xml.Tree.t -> t
(** One σ-walk that marks every exposed node.  Raises like {!walk}. *)

val is_for : t -> view:Derive.view -> Smoqe_xml.Tree.t -> bool
(** Whether [t] was computed for exactly this view and this tree
    (physical identity): a bitmap's ids mean nothing for another tree. *)

val mem : t -> Smoqe_xml.Tree.node -> bool
(** Whether the node is exposed; [false] outside the document's ids. *)
