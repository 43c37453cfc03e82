(** Sharded scatter-gather federation: one logical corpus, N engine
    instances, one merged answer.

    The corpus is split into shards, each served by its own
    {!Smoqe.Engine} instance; a query fans out to every shard through a
    {!Smoqe_exec.Pool} of domains, each shard answers against its slice
    (reusing the shared-automaton [run_many] batching within the shard),
    and the per-shard answers and {!Smoqe_hype.Stats} merge back into
    one federated result with [shard_fanout] recording the scatter
    width.

    Policies are registered on {e every} shard — the canonical policy
    key ({!Smoqe_security.Policy_key}) is a content hash, so the
    per-shard registries agree and cross-group artifact sharing works
    identically on each slice.  Group admission is {e federation-level}:
    one token bucket per group for the whole federation, charged once
    per member query before any shard sees work, so a wider fan-out
    never multiplies a group's bill.

    The module also carries the federated-corporation workload generator
    (graduated from [lib/workload]) used by bench [e3]/[e18] and the
    federation tests. *)

(** {1 The corpus workload} *)

val dtd : Smoqe_xml.Dtd.t
(** A heterogeneous "federated corporation": departments with sales,
    audit, HR and inventory sections — shaped so different security
    policies bite on different regions. *)

val generate :
  ?seed:int ->
  ?rng:Random.State.t ->
  n_departments:int ->
  section_size:int ->
  unit ->
  Smoqe_xml.Tree.t
(** Generate a random corpus document.  [rng] takes precedence over
    [seed]: pass one threaded [Random.State.t] to draw several {e
    distinct} documents from a single seed (see {!generate_corpus});
    without it each call re-seeds from [seed] (default 13) and is
    independently reproducible. *)

val generate_corpus :
  ?seed:int ->
  shards:int ->
  n_departments:int ->
  section_size:int ->
  unit ->
  Smoqe_xml.Tree.t list
(** [shards] documents drawn from one RNG state seeded with [seed] —
    the whole corpus is a deterministic function of the single seed and
    no two shards are accidental clones. *)

val queries : (string * string) list
(** Labeled benchmark queries over the corpus, mixing descendant
    wildcards, qualifiers and child-only paths. *)

(** {1 Scatter-gather serving} *)

type t
(** A federation handle: the shard engines plus the federation-level
    admission state. *)

val create : ?dtd:Smoqe_xml.Dtd.t -> Smoqe_xml.Tree.t list -> t
(** One engine per corpus document.  Raises [Invalid_argument] on an
    empty corpus. *)

val shard_tree :
  shards:int -> Smoqe_xml.Tree.t -> Smoqe_xml.Tree.t list
(** Round-robin split of the root's element children: shard [k] serves
    children [k, k+shards, k+2·shards, …] under a copy of the root tag.
    Shards of a valid document need not satisfy the root's full content
    model individually — they are loaded without validation. *)

val of_tree : ?dtd:Smoqe_xml.Dtd.t -> shards:int -> Smoqe_xml.Tree.t -> t
(** [create] over [shard_tree]. *)

val n_shards : t -> int
val shard : t -> int -> Smoqe.Engine.t

val register_policy :
  t -> group:string -> Smoqe_security.Policy.t -> (unit, string) result
(** Fan the group's policy to every shard.  Every shard is attempted
    even after a failure (no silently half-registered federation); the
    first error is returned. *)

val set_admission :
  t -> group:string -> capacity:int -> ?refill_per_s:float -> unit -> unit
(** Install the group's {e federation-level} admission bucket.  Shard
    engines keep unlimited admission — the federation charges once per
    member query, before scattering. *)

val admission_counters : t -> (string * (int * int)) list
(** Per-group [(admitted, throttled)] at the federation gate. *)

val tenant_counters : t -> (string * int) list
(** Registry counters from shard 0 (the registries are replicas). *)

type fed_outcome = {
  fed_answers : (int * int) list;
      (** [(shard, node id)] pairs, shard-major; ids are shard-local
          pre-order ranks *)
  fed_xml : string list;
      (** serialized answer fragments, concatenated in shard order *)
  fed_stats : Smoqe_hype.Stats.t;
      (** merged over shards, [shard_fanout] set to {!n_shards} *)
}

val query_robust :
  t ->
  pool:Smoqe_exec.Pool.t ->
  ?group:string ->
  ?mode:Smoqe.Engine.mode ->
  ?use_index:bool ->
  ?make_budget:(unit -> Smoqe_robust.Budget.t) ->
  string ->
  (fed_outcome, Smoqe_robust.Error.t) result
(** Slot 0 of a one-element {!run_many_robust}: scatter one query to
    every shard via the pool (per-group lanes apply, see
    {!Smoqe_exec.Pool.submit}), gather and merge.  A group whose bucket
    is dry is throttled before any shard work ([Budget_exceeded] with
    [tenant_throttled] in the partial stats); any shard failure fails the
    query with that shard's error. *)

val run_many_robust :
  t ->
  pool:Smoqe_exec.Pool.t ->
  ?group:string ->
  ?mode:Smoqe.Engine.mode ->
  ?use_index:bool ->
  ?make_budget:(unit -> Smoqe_robust.Budget.t) ->
  string list ->
  (fed_outcome, Smoqe_robust.Error.t) result array * Smoqe_hype.Stats.t
(** Scatter a whole batch: each shard answers the batch in one
    shared-automaton pass on its own pool task, then member answers
    merge across shards (results align with the input list).  A member
    that fails on any shard gets that shard's error without poisoning
    the rest.  Admission charges [length texts] tokens up front; a
    throttled batch returns every member [Error] and an aggregate with
    [tenant_throttled = length texts].  The aggregate merges the
    per-shard pass statistics with [shard_fanout] set. *)
