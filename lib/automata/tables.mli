(** Tag-specialized transition tables for an {!Nfa.t}.

    Compiles the NFA's [(test * state) list] rows against a tag-id space
    into dense per-tag columns [targets t state tag -> int array], so the
    evaluator hot path does no string comparison and no list scan.
    Columns hold {e raw} matched transition targets — not epsilon-closed,
    checks not interpreted; the evaluator owns closure and qualifier
    semantics.  Matching delegates to {!Nfa.matches_name}, so the table
    layer and the generic scan share one semantics.

    Frozen tables ({!of_tree}) are immutable after construction and safe
    to share across domains (they ride the plan cache).  Dynamic tables
    ({!dynamic}) grow as stream tags are {!intern}ed and must stay private
    to a single run. *)

type t

val text_tag : int
(** Tag id of text nodes — equals {!Smoqe_xml.Tree.text_tag}. *)

val unknown_tag : int
(** Negative sentinel: an element tag a frozen table has never seen.
    {!targets} maps it (and any out-of-range id) to the wildcard column. *)

val of_tree : Nfa.t -> Smoqe_xml.Tree.t -> t
(** Frozen specialization against the document's interned tag table.  Tag
    ids align with [Tree.tag_id] on that tree, so DOM drivers can pass
    tree tag ids straight through. *)

val dynamic : Nfa.t -> t
(** Growable specialization for streaming.  Element names mentioned by
    the automaton are pre-interned; unseen stream tags are added by
    {!intern} and alias the wildcard column. *)

val intern : t -> string -> int
(** Tag id for an element name.  Grows dynamic tables; on a frozen table
    an unseen name is {!unknown_tag}. *)

val targets : t -> Nfa.state -> int -> int array
(** [targets t s tag] — raw transition targets of state [s] on a child
    with tag [tag].  Out-of-range and {!unknown_tag} ids resolve to the
    wildcard (Any_element) row.  The returned array is shared: do not
    mutate. *)

val nfa : t -> Nfa.t
(** The automaton this table specializes (physical identity matters:
    evaluators refuse tables built for a different NFA). *)

val built_for : t -> Smoqe_xml.Tree.t -> bool
(** Whether this frozen table's columns are valid for this tree's tag
    ids: the tree it was built for, or any tree of the same tag-interning
    lineage ({!Smoqe_xml.Tree.tags_token} equality) — functional subtree
    updates preserve the lineage when they intern no new tag, so warm
    tables survive them. *)

val is_frozen : t -> bool
val n_tags : t -> int

val spec_us : t -> int
(** Wall-clock microseconds spent building the table (observability). *)
