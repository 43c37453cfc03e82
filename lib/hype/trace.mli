(** Per-node evaluation trace — the data behind iSMOQE's colored tree view
    (paper §3, "The output visualizer"): whether each node was visited,
    stored in Cans, selected as an answer, or skipped — and which
    optimization pruned it. *)

type mark =
  | Visited  (** entered with at least one active run *)
  | Dead  (** entered but no run matched *)
  | Skipped_dead  (** never entered: ancestor had no runs *)
  | Pruned_tax  (** never entered: TAX pruned the enclosing subtree *)
  | In_cans  (** stored as a candidate *)
  | Answer  (** in the final answer *)

type t

val create : unit -> t
val mark : t -> int -> mark -> unit
val marks : t -> int -> mark list
val marked : t -> int -> mark -> bool

val render : t -> Smoqe_xml.Tree.t -> string
(** Indented tree listing with one status column per node, e.g.
    [visited,cans,answer] — the terminal stand-in for the GUI's colors. *)

val mark_to_string : mark -> string
