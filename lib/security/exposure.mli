(** What a security view exposes, computed without building the view.

    The σ-walk below is the one definition of "exposed": starting at the
    document root as the view DTD's root type, a visible node of type [A]
    exposes, for every type [B] the view shows under [A], the nodes
    [sigma A B] selects from it, and its own text children when the view
    DTD gives [A] text content.  {!Materialize} builds the view tree from
    this walk; {!compute} and {!region} keep only a bitmap over document
    pre-order ids, which is what update legality asks. *)

val walk :
  ?admit:(Smoqe_xml.Tree.node -> bool) ->
  Derive.view ->
  Smoqe_xml.Tree.t ->
  text:(Smoqe_xml.Tree.node -> 'a) ->
  elem:(Smoqe_xml.Tree.node -> string -> (unit -> 'a list) -> 'a) ->
  'a
(** Visit the exposed nodes in view pre-order.  [elem n ty kids] is
    called for an exposed element [n] shown as type [ty]; forcing [kids]
    visits its view children (text and elements) in document order and
    returns their results.  [text n] is called for an exposed text node.
    With [admit], σ paths step only onto children [admit] accepts (their
    qualifiers still see whole subtrees) and only admitted text children
    are visited.  Raises [Invalid_argument] when the document's root type
    is not the view DTD's root type. *)

type t
(** The exposure of one id range of a document under one view. *)

val compute : Derive.view -> Smoqe_xml.Tree.t -> t
(** One σ-walk of the whole document that marks every exposed node — the
    reference {!region} is tested against.  Raises like {!walk}. *)

val region :
  Derive.view -> Smoqe_xml.Tree.t -> lo:Smoqe_xml.Tree.node ->
  hi:Smoqe_xml.Tree.node -> t
(** The exposure of the ids [\[lo, hi)] alone: equal to {!compute} on
    that range.  The σ-walk runs from the root along the ancestors of
    [lo] and descends in full only inside the range, so it costs the
    range, the ancestor chain and the qualifiers evaluated on chain nodes
    (each over the chain node's subtree) — not the document.  Raises
    [Invalid_argument] on a range outside the document, and like
    {!walk}. *)

val mem : t -> Smoqe_xml.Tree.node -> bool
(** Whether the node is exposed; [false] outside the computed range. *)

val anchored :
  Derive.view -> (Smoqe_rxpath.Ast.qual * string list option) list
(** The qualifiers the σ-walk evaluates on the nodes its σ paths reach
    (not those nested inside other qualifiers), each with the element
    tags such a node can carry ([None]: any).  Qualifiers look only
    downward, so the walk's verdict on a node depends on the rest of the
    document only through these qualifiers on its ancestors. *)
