(** Tag-specialized transition tables for an {!Nfa.t}.

    Compiles the NFA's [(test * state) list] rows against a tag-id space
    into dense per-tag columns [targets t state tag -> int array], so the
    evaluator hot path does no string comparison and no list scan.
    Columns hold {e raw} matched transition targets — not epsilon-closed,
    checks not interpreted; the evaluator owns closure and qualifier
    semantics.  Matching delegates to {!Nfa.matches_name}, so the table
    layer and the generic scan share one semantics.

    Tables are immutable after construction and safe to share across
    domains ({!of_tree} tables ride the plan cache). *)

type t

val text_tag : int
(** Tag id of text nodes — equals {!Smoqe_xml.Tree.text_tag}. *)

val unknown_tag : int
(** Negative sentinel: an element name outside the table's tag space.
    {!targets} maps it (and any out-of-range id) to the wildcard column. *)

val of_tree : Nfa.t -> Smoqe_xml.Tree.t -> t
(** Specialization against the document's interned tag table.  Tag ids
    align with [Tree.tag_id] on that tree, so DOM drivers can pass tree
    tag ids straight through. *)

val of_nfa : Nfa.t -> t
(** Specialization for streaming, over the element names the automaton
    mentions; any other stream tag {!intern}s to {!unknown_tag}. *)

val intern : t -> string -> int
(** Tag id for an element name; a name outside the table's tag space is
    {!unknown_tag}. *)

val targets : t -> Nfa.state -> int -> int array
(** [targets t s tag] — raw transition targets of state [s] on a child
    with tag [tag].  Out-of-range and {!unknown_tag} ids resolve to the
    wildcard (Any_element) row.  The returned array is shared: do not
    mutate. *)

val nfa : t -> Nfa.t
(** The automaton this table specializes (physical identity matters:
    evaluators refuse tables built for a different NFA). *)

val built_for : t -> Smoqe_xml.Tree.t -> bool
(** Whether this table's columns are valid for this tree's tag
    ids: the tree it was built for, or any tree of the same tag-interning
    lineage ({!Smoqe_xml.Tree.tags_token} equality) — functional subtree
    updates preserve the lineage when they intern no new tag, so warm
    tables survive them. *)

val spec_us : t -> int
(** Wall-clock microseconds spent building the table (observability). *)
