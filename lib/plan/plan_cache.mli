(** The compiled-plan cache: rewritten MFAs served to repeated queries.

    SMOQE's rewriter emits a linear-size MFA precisely so a query can be
    compiled once and evaluated many times; this cache is where "once"
    becomes true for a serving engine.  Plans are keyed by the canonical
    policy key of the view they were rewritten through (views rewrite per
    policy, and groups whose policies agree share one), the {e canonical}
    query text ({!Canon.to_key}), the evaluation mode and the index flag,
    and evicted in least-recently-used order under a capacity knob.

    A plan is a function of its key: the policy key is a content hash of
    the normalized policy, and a plan depends only on that view and the
    DTD.  So policy churn never invalidates a plan — a key whose groups
    all left and later come back finds its plans still correct.  Only a
    document write drops plans, eagerly and by tag scope
    ({!invalidate_tags}), and that is a freshness policy, not a
    correctness device.

    A capacity of [0] disables the cache entirely: probes miss without
    recording traffic and insertion is a no-op.

    {b Thread safety.}  The cache is engine-local mutable state shared by
    every session logged into that engine, and with the domain-pool
    executor ({!Smoqe_exec.Pool}) those sessions run queries on different
    domains {e in true parallel} — the OCaml 5 runtime does {e not}
    serialize access across domains.  Every operation here is therefore
    atomic under an internal mutex, with a double-checked fast path: a
    disabled cache ([capacity = 0]) answers {!find} from a lock-free
    [Atomic] gate, and an enabled probe re-checks the capacity after
    taking the lock.  The critical sections are a hash probe or insert —
    warm hits stay lock-cheap and the compile work a miss triggers always
    happens {e outside} the lock.

    The caller's probe-then-insert sequence is not atomic: two domains
    may miss on the same key concurrently, both compile, and both insert.
    That is always benign — both plans are correct for the key, [add] is
    last-writer-wins, and the only cost is one duplicated compile on a
    cold race.  Counters are exact, each being bumped under the lock. *)

type key = {
  group : string option;
      (** a plain partition of the key space, with no invalidation of its
          own: the engine keys plans by policy key and always leaves this
          [None]; kept for callers that replay the cache outside the
          engine *)
  policy_key : string option;
      (** canonical policy key ({!Smoqe_security.Policy_key}) of the view
          the plan was rewritten through: groups whose policies normalize
          to the same key share one cache entry per query.  [None]: the
          query runs directly on the document. *)
  query : string;  (** canonical text, {!Canon.to_key} *)
  mode : string;  (** ["dom"] | ["stax"] *)
  use_index : bool;
}

type 'plan t

type scope =
  | All_tags  (** conservative: swept by every subtree invalidation *)
  | Tags of string list
      (** the element names the plan's automaton tests; it survives any
          subtree update whose tag set is disjoint *)
(** The tag scope of a cached plan, for {!invalidate_tags}.  A scope is a
    freshness policy, not a correctness device: compiled plans depend on
    the view and the DTD, never on the document, so a warm plan that
    survives an update still answers correctly on the new tree. *)

val create : ?capacity:int -> unit -> 'plan t
(** [capacity] defaults to 128 plans. *)

val capacity : _ t -> int

val set_capacity : _ t -> int -> unit
(** Shrinking evicts least-recently-used entries down to the new bound;
    [0] clears the cache and disables it.  Negative capacities are
    clamped to [0]. *)

val find : 'plan t -> key -> 'plan option
(** Probe the cache.  A hit is refreshed to most-recently-used and
    counted.  A miss is {e not} counted, because the caller may re-probe
    under another key before conceding it; concede with
    {!record_miss}. *)

val record_miss : _ t -> unit
(** Count one compile forced by a cache miss.  No-op when disabled. *)

val add : 'plan t -> ?scope:scope -> key -> 'plan -> unit
(** Insert (or replace), evicting the least-recently-used entry when
    full.  [~scope] (default [All_tags]) declares the entry's tag scope
    for {!invalidate_tags}.  No-op when disabled. *)

val invalidate_tags : _ t -> string list -> int
(** Subtree-scoped invalidation after a functional update: eagerly
    remove every entry whose scope intersects the given element names
    (plus every [All_tags] entry), counting them under [tag_drops], and
    return how many died.  Warm entries with disjoint scopes survive —
    this is the point: a localized edit must not cool the whole cache. *)

val to_assoc : _ t -> (string * int) list
(** The counters [hits]/[misses]/[evictions]/[tag_drops]/[entries]/
    [capacity], in the [Smoqe_hype.Stats.to_assoc] style for stats
    surfaces. *)
