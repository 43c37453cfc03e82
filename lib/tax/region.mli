(** Region (interval) labeling with inverted tag lists — the classic XML
    indexing scheme the paper contrasts TAX with (§3, Indexer: techniques
    that "focus mainly on optimizing the evaluation of '//' ... they are
    limited in scope").

    Each node carries a [(pre, post, level)] label; ancestorship is two
    integer comparisons.  Per-tag inverted lists (in document order) feed
    structural joins ({!Smoqe_baseline.Structural_join}). *)

type t

val build : Smoqe_xml.Tree.t -> t
(** One pass over the document. *)

val post : t -> Smoqe_xml.Tree.node -> int
val level : t -> Smoqe_xml.Tree.node -> int

val is_ancestor : t -> anc:Smoqe_xml.Tree.node -> desc:Smoqe_xml.Tree.node -> bool
(** Strict ancestorship, by label comparison only. *)

val nodes_with_tag : t -> string -> int array
(** All elements with this tag, in document order ([[||]] if unused). *)

val text_nodes : t -> int array

val memory_words : t -> int
(** Size of the label arrays plus inverted lists, in words. *)
