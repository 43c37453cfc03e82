(** Evaluation counters, backing experiments E1–E6 and the iSMOQE
    "window into the engine". *)

type t = {
  mutable nodes_entered : int;
      (** nodes the engine processed (alive or found dead on entry) *)
  mutable nodes_alive : int;  (** nodes with at least one active run *)
  mutable nodes_skipped_dead : int;
      (** nodes never entered: inside subtrees with no active run *)
  mutable nodes_pruned_tax : int;
      (** nodes never entered thanks to TAX pruning *)
  mutable candidates : int;  (** entries added to Cans *)
  mutable answers : int;
  mutable conds_created : int;  (** deferred qualifier assumptions *)
  mutable quals_resolved : int;  (** qualifier instances settled *)
  mutable atom_instances : int;  (** qualifier-atom runs instantiated *)
  mutable max_items : int;  (** peak simultaneous run items on one node *)
  mutable passes_over_data : int;  (** 1 for HyPE; baselines report more *)
  mutable degraded_no_index : int;
      (** 1 when an index was requested/expected but evaluation fell back
          to an unindexed DOM pass *)
  mutable degraded_stax_retry : int;
      (** 1 when the StAX driver failed and the query was retried (and
          answered) in DOM mode *)
  mutable plan_cache_hit : int;
      (** 1 when the compiled plan was served from the engine's plan cache
          (parse, rewrite and compile all skipped) *)
  mutable memo_hits : int;
      (** lazy-DFA memo: [(state set, tag)] transitions served memoized *)
  mutable memo_misses : int;  (** transitions computed and memoized *)
  mutable memo_evictions : int;
      (** lazy-DFA registry flushes (set diversity exceeded the cap) *)
  mutable table_spec_us : int;
      (** microseconds spent specializing transition tables for this query
          (0 when a table was reused from the plan) *)
  mutable batch_queries : int;
      (** queries served by this shared-automaton batch pass (0 for a
          plain single-query run) *)
  mutable shared_states : int;
      (** states in the merged batch automaton *)
  mutable shared_saved : int;
      (** member states the prefix-sharing merge collapsed away *)
  mutable shared_prefix_hits : int;
      (** member states fused into an already-merged state *)
  mutable accept_width : int;
      (** widest per-state owner set among the batch accept states *)
  mutable policy_key_hits : int;
      (** member queries served a cached plan compiled under the view's
          canonical policy key — by this group or another group with an
          equal policy (rewrite and compile skipped) *)
}

val create : unit -> t

val zero : unit -> t
(** An all-zero accumulator (unlike {!create}, [passes_over_data] starts
    at 0): the identity for {!merge_into}. *)

val merge_into : into:t -> t -> unit
(** Fold one query's counters into an aggregate — how the pool executor
    reports a batch: each parallel query evaluates with its own
    domain-local [t], and the per-domain results are merged after the
    futures resolve (no counter is ever shared while hot).  Sums every
    counter except [max_items] and [accept_width], which take the max; the
    one-valued flags ([degraded_*], [plan_cache_hit]) therefore become
    {e counts} of affected queries in the aggregate.  Totality over the
    record is enforced by a unit test — add new fields here, to
    {!to_assoc} and to the test together. *)

val total_skipped : t -> int
(** Dead-skipped plus TAX-pruned. *)

val degraded : t -> bool
(** Did any graceful degradation (index → no-index, StAX → DOM) occur? *)

val to_assoc : t -> (string * int) list
(** All counters as labelled integers — the shape
    [Smoqe_robust.Error.Budget_exceeded] carries as partial statistics. *)

val pp : Format.formatter -> t -> unit

val note_shared : t -> Smoqe_automata.Shared.t -> unit
(** Record a shared-automaton merge's batch counters ([batch_queries],
    [shared_states], [shared_saved], [shared_prefix_hits],
    [accept_width]).  Drivers call it for a merged pass only; a single
    query's stats keep them at zero. *)
