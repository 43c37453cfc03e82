(** The SMOQE engine façade: documents, policies, views, indexes and query
    answering — the module a downstream application uses.

    A SMOQE instance holds one XML document (with its DTD if given), any
    number of per-group security views (derived automatically from access
    control policies, paper §2), and an optional TAX index.  The user
    group is the one principal: queries are Regular XPath, posed either
    directly on the document (no group: administrative access) or on a
    group's virtual view; view queries are rewritten to MFAs on the
    document and evaluated by HyPE — the view is never materialized.

    {b Totality.}  This façade is guarded: no input — malformed XML, a
    hostile query, an exhausted resource budget or an injected fault —
    makes any function here raise.  Queries, rewrites and updates fail
    with the typed taxonomy [Smoqe_robust.Error.t] (see {!query_robust});
    the administrative operations that return [string] errors render a
    plain message.  Two degradations are applied rather than failing,
    and recorded in [outcome.stats]: an unavailable index downgrades to
    an unindexed DOM pass ([degraded_no_index]), and a StAX driver
    failure — an I/O fault, a parse error, a file changed since load —
    is retried once in DOM mode on the held tree ([degraded_stax_retry]).

    {b Concurrency.}  The query path is domain-safe: any number of
    domains — a caller's own domain pool, say — may call {!query_robust}
    against one engine concurrently, interleaved with updates and the
    administrative operations ({!register_policy}, {!build_index},
    {!load_index}).  Each query atomically snapshots the served {tree,
    source, index} triple at start and evaluates wholly against that
    snapshot; the plan cache is internally locked; trees and indexes are
    deeply immutable.  The engine owns no executor.  See DESIGN.md §9 for
    the full model (what is shared, what is per-domain, lock order). *)

type t

type mode =
  | Dom  (** in-memory evaluation, TAX-prunable *)
  | Stax
      (** single sequential scan of the document's bytes — the string or
          file the engine was loaded from.  An engine built by {!of_tree},
          or whose document changed through an update, holds no bytes:
          it answers with the DOM driver, whose answers and [answer_xml]
          are the same. *)

type outcome = {
  answers : int list;  (** answer node ids (document pre-order) *)
  answer_xml : string list;
      (** serialized answer subtrees (captured on the fly in StAX mode) *)
  stats : Smoqe_hype.Stats.t;
  mfa : Smoqe_automata.Mfa.t;  (** the (rewritten) automaton that ran *)
  cans_size : int;
}

(** {1 Construction}

    Every constructor validates: an engine with a DTD always serves a
    document that conforms to it, and every write keeps it so. *)

val of_string_robust :
  ?budget:Smoqe_robust.Budget.t ->
  ?dtd:Smoqe_xml.Dtd.t ->
  string ->
  (t, Smoqe_robust.Error.t) result
(** Parse a document from XML text.  With [dtd], the document is
    validated and policies may be registered.  Malformed input (syntax
    errors and DTD-validation failures) is [Error.Parse_error] — CLI
    front-ends exit with [Error.exit_code = 2] on it — and
    budget/failpoint trips keep their own classes.  With [budget],
    document *parsing* is bounded too (node count, depth, deadline),
    returning [Budget_exceeded]. *)

val of_file_robust :
  ?budget:Smoqe_robust.Budget.t ->
  ?dtd:Smoqe_xml.Dtd.t ->
  string ->
  (t, Smoqe_robust.Error.t) result
(** Like {!of_string_robust}; parse-error locations carry the file name. *)

val of_tree :
  ?dtd:Smoqe_xml.Dtd.t -> Smoqe_xml.Tree.t -> (t, Smoqe_robust.Error.t) result
(** Serve an already-built tree.  With [dtd], the tree is validated as
    {!of_string_robust} validates: a tree that does not conform is
    [Error.Parse_error] carrying the validator's first error. *)

val document : t -> Smoqe_xml.Tree.t
val dtd : t -> Smoqe_xml.Dtd.t option

(** {1 Security views}

    A group is registered with its own annotated-DTD policy.  Groups
    whose annotations agree after normalization
    ({!Smoqe_security.Policy_key}) share {e one} derived view, one rewrite
    and — through the plan cache's policy-key dimension — one compiled
    plan per query. *)

val register_policy :
  t -> group:string -> Smoqe_security.Policy.t -> (unit, string) result
(** Register (or re-register) a group's policy.  The view is derived only
    when the canonical policy key is new; re-registering an identical
    policy changes nothing and keeps the group's plans warm.  A group that
    moves to a different policy serves through the new key at once; a key
    whose last group moved away frees its view.  No registration touches
    the plan cache: the key is a content hash of the policy, so a plan
    cached under it serves again, warm, if the policy returns.  Fails if
    the engine has no DTD, the policy is over a different DTD, or
    derivation is unsupported. *)

val remove_policy : t -> group:string -> unit
(** Forget a group: its members' queries and updates fail with
    [Policy_error] from now on, and its policy key's view is freed if it
    was the last holder.  Cached plans are kept, as in
    {!register_policy}. *)

val view : t -> group:string -> Smoqe_security.Derive.view option

val view_dtd : t -> group:string -> Smoqe_xml.Dtd.t option
(** The schema exposed to the group's users. *)

val group_counters : t -> (string * int) list
(** Registry counters: [groups] (registered groups)/[policy_keys] (keys
    holding a view)/[policy_key_hits]/[derivations]. *)

(** {1 Indexing} *)

val build_index : t -> unit
(** Build (or rebuild) the TAX index for the document. *)

val index : t -> Smoqe_tax.Tax.t option

val save_index : t -> string -> (unit, string) result
val load_index : t -> string -> (unit, string) result
(** Load a previously saved index; fails if it does not match the
    document's shape.  Subject to the ["index.load"] failpoint.  A failed
    load leaves the engine serving queries without an index (recorded per
    query as [degraded_no_index] when one was requested). *)

(** {1:plan_cache The compiled-plan cache}

    Parsing, rewriting and compiling a Regular XPath query costs far more
    than evaluating its linear-size MFA on a modest document — and under
    serving traffic the same queries arrive over and over, from every
    session logged into the engine.  The engine therefore keeps an LRU
    cache of compiled plans keyed by [(policy key, canonical query text,
    mode, use_index)] (see {!Smoqe_plan.Canon} and
    {!Smoqe_plan.Plan_cache}); administrative queries have no policy key.
    A hit skips parse, rewrite and compile entirely and records
    [plan_cache_hit = 1] in the outcome's stats (and [policy_key_hits = 1]
    for a member query); resource budgets are still enforced
    ([max_states] is re-checked against the cached plan).  Groups with
    equal policies share plans, and policy churn keeps them (a plan is a
    function of its key); an update drops the plans that name a tag it
    touched.  A failed compile — error, tripped budget or injected
    ["plan.compile"] fault — never populates the cache. *)

val set_plan_cache_capacity : t -> int -> unit
(** Bound the number of cached plans (default 128).  Shrinking evicts in
    LRU order; [0] disables caching entirely. *)

val plan_cache_counters : t -> (string * int) list
(** [hits], [misses], [evictions], [tag_drops], [entries], [capacity]
    and [saved_compile_ms] (total compile time hits avoided). *)

(** {1 Querying} *)

val query_robust :
  t ->
  ?group:string ->
  ?mode:mode ->
  ?use_index:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Smoqe_hype.Trace.t ->
  string ->
  (outcome, Smoqe_robust.Error.t) result
(** Answer a Regular XPath query.  Without [group], the query runs
    directly on the document; with [group], it is first rewritten through
    the group's view (an unregistered group is [Policy_error]).
    [use_index] (default [true] when an index exists) enables TAX pruning
    in [Dom] mode.  [budget] bounds compilation and evaluation (see
    {!Smoqe_robust.Budget}); a tripped budget returns [Budget_exceeded]
    carrying the partial evaluation counters.  Evaluation runs on the
    table-driven engine; in [Dom] mode the frozen specialization rides
    the compiled plan and warm repeats skip it.  A query is a batch of
    one: this is slot 0 of the {!run_many_robust} pipeline (see
    {!section-batch}).  Guaranteed total: every library exception is
    caught at this boundary and classified. *)

val rewrite_only :
  t ->
  group:string ->
  string ->
  (Smoqe_automata.Mfa.t, Smoqe_robust.Error.t) result
(** Just the rewriting step — what iSMOQE visualizes (paper Fig. 4). *)

(** {1 Secure updates}

    Typed subtree edits ({!Smoqe_update.Update.op}: insert, delete,
    replace), policy-checked against the caller's security view and
    published atomically together with incremental maintenance of the
    derived read structures:

    - the {b TAX index} is spliced around the edited range
      ({!Smoqe_tax.Tax.splice}) instead of rebuilt;
    - {b frozen tag tables} riding cached plans stay valid whenever the
      edit interned no new tag (tag-lineage tokens,
      {!Smoqe_automata.Tables.built_for});
    - the {b plan cache} is invalidated by tag scope
      ({!Smoqe_plan.Plan_cache.invalidate_tags}): only plans whose named
      tags intersect the edit's footprint are dropped, warm unrelated
      entries survive.

    A member update (with [group]) must pass the view-legality
    discipline — the edit may only touch exposed nodes and must not flip
    the visibility of anything else; violations return
    [Error.Update_denied] (CLI exit code 4) carrying the offending node.
    Updates never leave partial state: every check, the DTD check of the
    edit and both ["update.apply"]/["update.invalidate"] failpoints sit
    strictly before the locked publish, so any failure is a clean full
    reject.

    This is the one write path.  A wholesale document swap is an admin
    [Replace (By_id Tree.root, Tree.to_source t Tree.root)]: the DTD check
    then covers every node of [t], the live index is rebuilt, views and
    sessions are kept, and the plans naming a tag of either document are
    dropped (a surviving plan names neither, and plans depend only on
    the view and the DTD). *)

type update_report = {
  up_target : int;  (** the resolved target node (pre-update ids) *)
  up_nodes_before : int;
  up_nodes_after : int;
  up_plans_dropped : int;  (** plan-cache entries the edit invalidated *)
  up_index_maintained : bool;
      (** a TAX index was live and was spliced incrementally *)
}

val update_robust :
  t ->
  ?group:string ->
  Smoqe_update.Update.op ->
  (update_report, Smoqe_robust.Error.t) result
(** Apply one update.  Without [group] the caller is administrative and
    only structural/DTD checks apply; with [group] the edit is checked
    against that group's view.  A [By_path] target is evaluated through
    the view and must select exactly one node ([Query_error] otherwise).
    A candidate that violates the engine's DTD is [Parse_error] (the
    input, not the system, is at fault), reporting the first violation in
    document order.  Every check is local to the edit, because the served
    document is always valid: the legality checks walk the view only
    along the edit's ancestors and inside its range, and the DTD check
    reads only the edit parent and the new subtree.  Concurrent updates
    are safe:
    the staged pipeline redoes itself from a fresh snapshot when it
    loses the publish race. *)

(** {1:batch One pipeline for one query and for many}

    Every request — a single query, a batch, an update's target path —
    takes one road: plan acquisition, one document pass, and a
    demultiplexing of the pass into per-slot outcomes.  {!query_robust}
    is slot 0 of a one-element request.

    Every plan is one shape, a batch merge ({!Smoqe_automata.Shared}).
    Plan acquisition collapses identical texts, and canonically equal
    ones (see {!Smoqe_plan.Canon}), onto one member.  {b One distinct
    member is a single query}: a batch of one, whose automaton is the
    member's own, cached under the single-query key, so
    [run_many_robust [q]] and [query_robust q] share one plan.
    Two or more distinct members are compiled and merged into a single
    combined NFA — their disjoint union under one root, minimized, each
    accept state owned by one member; the merged automaton rides the same
    table/lazy-DFA machinery as a single query — the interned state sets
    just get wider, with the [(set, tag)] memo shared across the whole
    batch — and candidate answers demultiplex back to their owners.  The
    merged plan is cached under a canonical batch key (the sorted unique
    member keys), so a warm batch skips parse, compile {e and} merge —
    permutations and duplicate mixes of a warm batch still hit.  Every
    plan carries the schema-emptiness verdict: a plan the DTD proves
    empty skips the document. *)

val run_many_robust :
  t ->
  ?group:string ->
  ?mode:mode ->
  ?use_index:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  string list ->
  (outcome, Smoqe_robust.Error.t) result array * Smoqe_hype.Stats.t
(** Answer every query of the batch in one pass.  Results align with the
    input list.  Each successful outcome carries the member's own answers
    (and serialized fragments); the second component is the pass
    statistics (one [passes_over_data]; on a merge of two or more
    members the batch counters [batch_queries]/[shared_states]/
    [shared_saved] are filled in).  Every slot's stats are a private copy
    of the pass counters with its own [stats.answers]; a one-slot request
    reports exactly what {!query_robust} does.  A member that fails to parse or compile
    gets its own [Error] without poisoning the rest; [budget] bounds each
    member's compile and the {e single} traversal (a trip fails the whole
    batch — the shared pass is all-or-nothing).  Per-query [trace] is not
    available on the batch path. *)
