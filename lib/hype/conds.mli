(** Deferred qualifier conditions.

    HyPE discovers candidate answers top-down, before the qualifiers
    guarding them have been evaluated (their truth depends on subtrees not
    yet traversed).  A run therefore carries the set of conditions it has
    assumed — pairs of (qualifier id, node id) — and a candidate records
    one such set per run that selected it.  Conditions are resolved when
    the traversal leaves the node (post-visit), and candidates are settled
    in a final pass over Cans. *)

type cond = int * int
(** (qualifier id, node id) — "qualifier q holds at node n". *)

type set
(** A conjunction of conditions: sorted, duplicate-free. *)

val empty : set
val is_empty : set -> bool
val add : cond -> set -> set
val to_list : set -> cond list
val compare_set : set -> set -> int
