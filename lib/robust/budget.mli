(** Resource budgets for the parse → compile → evaluate pipeline.

    SMOQE serves Regular XPath from arbitrary group members over possibly
    adversarial documents; a budget bounds what one query may consume.  A
    [Budget.t] is threaded (as an option — [None] costs nothing) into the
    pull parser, the MFA compiler and both HyPE drivers, which check it at
    their unit of work:

    - {b elapsed time} ([timeout_ms]) — on the monotonic clock, checked
      every 256 work units, so an overrunning query stops within a small
      multiple of the deadline;
    - {b nodes scanned} ([max_nodes]) — every node/event entering the
      pipeline, parser and evaluator alike;
    - {b Cans entries} ([max_cans]) — candidate answers held by HyPE;
    - {b automaton states} ([max_states]) — the compiled/rewritten MFA;
    - {b parse depth} ([max_depth]) — open elements in the pull parser.

    Checks raise {!Exceeded}; the guarded façade converts that into
    [Error.Budget_exceeded] carrying the partial evaluation statistics.

    {b Domain locality.}  A [Budget.t] is mutable per-query state (a node
    counter settled in batches) with {e no} internal synchronization.
    The contract under a domain pool: one budget, one query, one
    domain — create the budget inside the submitted task and never share
    one [t] between concurrently running queries.  A budget made inside
    the task also starts its deadline when the query is picked
    up, not when it was enqueued.  The CLI's [--repeat] builds a fresh
    budget per run. *)

type t

val now_ns : unit -> int
(** The monotonic clock (CLOCK_MONOTONIC, nanoseconds) that every SMOQE
    timer reads: budget deadlines, table specialization and plan compile
    times.  A wall-clock step moves none of them. *)

exception Exceeded of { what : string; limit : string }
(** [what] names the exhausted budget (["timeout_ms"], ["max_nodes"],
    ["max_cans"], ["max_states"], ["max_depth"]); [limit] renders the
    configured bound. *)

val create :
  ?timeout_ms:int ->
  ?max_nodes:int ->
  ?max_cans:int ->
  ?max_states:int ->
  ?max_depth:int ->
  unit ->
  t
(** Omitted dimensions are unlimited.  The wall-clock deadline is armed at
    creation time: create the budget when the query arrives. *)

val tick_nodes : t -> int -> unit
(** [tick_nodes t k] counts [k] units at once.  The evaluators batch their
    ticks (counting locally, settling every 32 nodes and once at the end)
    so the per-node cost stays under the 2% overhead guard; [max_nodes]
    may consequently overshoot by at most one batch before firing. *)

val check_deadline : t -> unit
val check_depth : t -> int -> unit
val check_cans : t -> int -> unit
val check_states : t -> int -> unit

val max_depth_limit : t -> int
(** The [max_depth] bound, [max_int] when unlimited — for callers that
    keep the limit in a local and call {!check_depth} only past it. *)

val nodes_scanned : t -> int
(** Work consumed so far (parser events plus evaluator node entries). *)
