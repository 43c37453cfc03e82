(** Deferred qualifier conditions.

    HyPE discovers candidate answers top-down, before the qualifiers
    guarding them have been evaluated (their truth depends on subtrees not
    yet traversed).  A run therefore carries the set of conditions it has
    assumed, and a candidate records one such set per run that selected
    it.  Conditions are resolved when the traversal leaves the node
    (post-visit), and candidates are settled in a final pass over Cans. *)

type cond = int
(** A slot of the engine's condition table: "qualifier q holds at node n"
    for the one (q, n) pair that took the slot.  The first run to assume
    q at n takes the next slot; every later run assuming q at n reuses
    it, so equal conditions are equal ints. *)

type set
(** A conjunction of conditions: sorted, duplicate-free. *)

val empty : set
val is_empty : set -> bool
val add : cond -> set -> set
val to_list : set -> cond list
val compare_set : set -> set -> int
