(** Cans — the candidate-answer store (paper §3, Evaluator).

    During its single document pass HyPE appends every potential answer
    node here, once per run that selected it, together with the condition
    set that run assumed.  After the pass, {!resolve} settles the
    candidates in one sweep using the by-then-complete qualifier
    valuation.  Cans is
    "often much smaller than the XML document tree" — experiment E6
    measures exactly {!size} against document size. *)

type t

val create : unit -> t

val add : t -> node:int -> Conds.set -> unit
(** Record that [node] was selected by a run assuming these conditions. *)

val size : t -> int
(** Number of candidate entries stored (a node selected by several runs
    counts once per run). *)

val resolve : t -> lookup:(Conds.cond -> bool) -> int list
(** The final answer, in document order: the nodes for which the
    conjunction of at least one of their entries holds under the
    valuation. *)
