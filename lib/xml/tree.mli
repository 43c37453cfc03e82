(** In-memory XML documents (the DOM mode of SMOQE).

    A document is an ordered, unranked tree of element and text nodes.
    Nodes are identified by their pre-order rank, so the subtree rooted at a
    node occupies a contiguous id range — the property both the TAX index
    and the Cans candidate store exploit.  Element tags are interned to
    small integers ([tag id]s) shared with the automata and the index. *)

type t
(** An immutable XML document.  Deeply immutable: nothing in a [t] is
    written after the constructor returns (comparison {!value} spans are
    precomputed there, not memoized lazily), so a tree may be read from
    any number of domains in parallel without synchronization.

    The representation is packed (DESIGN.md §15): structure is flat
    pre-order int arrays, and all content — text, attribute values,
    comparison values — lives as [(offset, length)] spans into two
    shared byte regions (the document arena and a decoded-segment
    appendix).  Accessors returning strings materialize a copy on
    demand; the [_slice]/[_equal]/[iter_] variants read in place. *)

type node = int
(** A node id: the pre-order rank of the node, starting at [root = 0]. *)

val root : node

type source =
  | E of string * (string * string) list * source list
      (** [E (tag, attributes, children)] *)
  | T of string  (** A text node. *)

(** {1 Construction}

    Every tree — parsed, built from a {!source}, or spliced by a
    functional update — is built one way: {!Builder} events write its
    pre-order columns (tag, parent, depth, subtree end, content span,
    attributes), each once, when the event that decides it arrives.
    There are no child or sibling links to build: {!first_child},
    {!next_sibling} and the child iterators read them off the subtree
    ends. *)

val of_source : source -> t
(** Build a document from a nested description, by pushing it through
    the {!Builder} events (a worklist walk: any depth).  Its content
    becomes the tree's appendix.  Raises [Invalid_argument] on an empty
    tag name. *)

(** The events every tree is built from.  The parser drives them
    directly, for builders that already hold the document bytes: it
    pushes structure and [(offset, length)] spans ([off >= 0] into
    [~arena], [off < 0] at [lnot off] into [~appendix] — {!Pull}'s
    raw-span coding), and no intermediate {!source} or per-node string
    is ever allocated.  Events must be well-formed (balanced, single
    root, attributes directly after their [start_element]) — {!Pull}
    guarantees that. *)
module Builder : sig
  type b

  val create : ?predict:(int -> int) -> unit -> b
  (** [predict n], called when the node columns fill at [n] nodes (from
      a few thousand on), estimates how many nodes the tree will have;
      the columns grow to that, kept between [5n/4] and [4n].  Without
      it they double. *)

  val start_element : b -> string -> unit
  val attr : b -> string -> int -> int -> unit
  val text : b -> int -> int -> unit
  val end_element : b -> unit

  val finish : b -> arena:string -> appendix:string -> t
  (** The tree of the pushed events, whose content spans index
      [arena]/[appendix] directly — the caller's byte regions become the
      tree's, and so do the builder's columns: neither is copied.  Only
      the values of mixed-content elements are computed here.  The
      builder is spent: push no further events to it. *)
end

val to_source : t -> node -> source
(** Re-export the subtree rooted at a node as a nested description (a
    worklist walk: any depth). *)

val text_tag : int
(** The reserved tag id of text nodes (its name is ["#text"]). *)

(** {1 Functional updates}

    Each operation returns a {e new} tree; the input is never written
    (see the immutability invariant on [t]).  Node ids keep their
    pre-order meaning: ids below the edited range are unchanged, ids at
    or after it shift by the size delta.  Tag interning is {e stable}:
    ids of the input tree's tags are preserved, tags first seen in the
    inserted material are appended, and when the edit interns no new tag
    the result shares the input's tag table and {!tags_token} — which is
    what lets frozen per-tag transition tables survive the update.
    All three raise [Invalid_argument] on out-of-range or structurally
    invalid targets (deleting the root, inserting under a text node,
    [?before] not a child of [~parent]). *)

val delete_subtree : t -> node -> t
(** Remove the whole subtree rooted at a node (not the root). *)

val replace_subtree : t -> node -> source -> t
(** Replace the whole subtree rooted at a node.  Replacing the root
    rebuilds the document but still keeps tag interning stable. *)

val insert_subtree : t -> parent:node -> ?before:node -> source -> t
(** Insert a new subtree as a child of [~parent], immediately before the
    existing child [?before], or as the last child when omitted. *)

val tags_token : t -> int
(** Identity of the tag-interning lineage.  Two trees with equal tokens
    have byte-identical tag tables (the same names at the same ids), so
    artifacts keyed by tag id — the frozen transition tables, the TAX
    bit rows — built against one are tag-aligned with the other.
    {!of_source} mints a fresh token; the functional updates above
    preserve it exactly when they intern no new tag. *)

val subtree_element_names : t -> node -> string list
(** Distinct element names occurring in the subtree of a node, in first-
    occurrence order ([#text] excluded). *)

val source_element_names : source -> string list
(** Distinct element names occurring in a source description. *)

(** {1 Structure} *)

val n_nodes : t -> int

val is_element : t -> node -> bool
val is_text : t -> node -> bool

val tag_id : t -> node -> int
(** Interned tag of a node; [text_tag] for text nodes. *)

val tag_name : t -> int -> string
(** Name of an interned tag.  Raises [Invalid_argument] on an unknown id. *)

val name : t -> node -> string
(** [name t n] is [tag_name t (tag_id t n)]. *)

val id_of_tag : t -> string -> int option
(** Look up the id of a tag name, if any node of the document uses it. *)

val n_tags : t -> int
(** Number of distinct tags, text included. *)

val parent : t -> node -> node option
(** [None] exactly for the root. *)

val first_child : t -> node -> node option
(** [Some (n + 1)] when [subtree_end t n > n + 1]. *)

val next_sibling : t -> node -> node option
(** The subtree end of [n], when that is below its parent's end. *)

val children : t -> node -> node list

val iter_children : t -> node -> (node -> unit) -> unit
val fold_children : t -> node -> init:'a -> f:('a -> node -> 'a) -> 'a
(** Loops over subtree ends: no links are stored.  A hot loop can walk
    the same way with no closure, as [c := subtree_end t c]. *)

val subtree_end : t -> node -> node
(** [subtree_end t n] is the first id after the subtree of [n]; the subtree
    of [n] is exactly the range [n .. subtree_end t n - 1]. *)

val subtree_size : t -> node -> int

val depth : t -> node -> int
(** Distance from the root (the root has depth 0). *)

val attributes : t -> node -> (string * string) list
(** Attributes of an element, in document order; [[]] for text nodes.
    Materializes a fresh list — prefer {!iter_attrs} on hot paths. *)

val attribute : t -> node -> string -> string option

val iter_attrs : t -> node -> (string -> string -> int -> int -> unit) -> unit
(** [iter_attrs t n f] calls [f name backing off len] for each attribute
    in document order — the value is the slice [backing[off, off+len)],
    read in place with no copy. *)

(** {1 Content} *)

val text_content : t -> node -> string
(** Content of a text node; [""] for elements.  Materializes a copy —
    prefer {!content_slice} on hot paths. *)

val value : t -> node -> string
(** The comparison value of a node, as used by Regular XPath equality
    tests: a text node's content, or the concatenation of an element's
    immediate text children.  The span is precomputed at construction
    (safe under parallel evaluation); this accessor copies it out —
    prefer {!value_equal} or {!content_slice} on hot paths. *)

val value_equal : t -> node -> string -> bool
(** [value_equal t n s] is [String.equal (value t n) s] without
    materializing the value. *)

val content_slice : t -> node -> string * int * int
(** [(backing, off, len)] — the {!value} span of a node (= its content
    for a text node), read in place with no copy.  The backing string is
    one of the tree's immutable byte regions: it stays valid as long as
    the tree does. *)

val descendant_or_self_texts : t -> node -> string
(** Full XPath-style string value: concatenation of all text descendants. *)

(** {1 Traversal} *)

val iter_preorder : t -> (node -> unit) -> unit

val fold_preorder : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val equal : t -> t -> bool
(** Structural equality of documents (tags, texts and attributes; interned
    ids may differ), read off the columns: any depth. *)
