(** A fixed pool of OCaml 5 domains serving a bounded FIFO work queue —
    the executor a caller uses to run SMOQE engine queries on many cores.

    The pool is spawned {e once} (domain spawn costs milliseconds and a
    thread stack; per-query spawning would dwarf query latency) and sized
    explicitly: one worker domain per requested job.  Work arrives through
    {!submit}, which enqueues a thunk and returns a {!future}; the queue is
    bounded, so a producer that outruns the workers blocks in [submit]
    rather than growing the heap without limit (backpressure, not
    buffering).

    {b The sequential escape hatch.}  [~domains:1] (or [0]) builds the
    {e inline} executor: no domain is spawned, no queue exists, and
    {!submit} runs the thunk immediately on the caller — the future is
    already resolved when it is returned.  The sequential path pays one
    closure allocation, no locks, no context switch.

    {b What tasks may touch.}  The pool itself makes no safety promises
    about the closures it runs — they execute concurrently on distinct
    domains.  The SMOQE engine's query path is domain-safe: a task that
    calls [Engine.query_robust] shares only the immutable document tree
    and TAX index snapshot and the mutex-guarded plan cache, and should
    build its own [Budget] inside the thunk (see DESIGN.md §9,
    "Concurrency model").

    {b Exceptions} raised by a task are caught on the worker, stored in
    the future, and re-raised at {!await} on the awaiting domain — a
    crashing task never takes a worker down.  Engine tasks are total
    ([query_robust] returns [result]s), so for them this path is armor,
    not control flow. *)

type t
(** A pool handle.  Values of type [t] may be shared across domains:
    {!submit} is safe to call concurrently. *)

type 'a future
(** The pending (or completed) result of a submitted task. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] spawns [domains] worker domains ([>= 2]), or
    the inline executor for [domains <= 1], runs [f], then drains the
    queue and joins the workers (also when [f] raises).  At most 32
    tasks wait to run; a full queue blocks {!submit} until a worker
    drains it. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task at the back of the FIFO.  Blocks while the queue is
    full; raises [Invalid_argument] once the pool has shut down.  On the
    inline executor the task runs before [submit] returns. *)

val await : 'a future -> 'a
(** Block until the task has run; return its value or re-raise the
    exception it died with.  Any domain may await any future, any number
    of times. *)

(** {1 Per-domain accounting} *)

val worker_loads : t -> int array
(** Tasks {e executed} per worker, index [0 .. domains - 1] — the
    load-balance view, so tasks that raised count too (a crashing task
    occupied its worker just the same).  Summed over workers this equals
    the number of tasks run, successes and failures both.  Read without
    stopping the pool: counts are monotonic snapshots. *)

val worker_failures : t -> int array
(** Tasks that ended in an exception, per worker.  A subset of
    {!worker_loads}, not disjoint from it. *)

(** {1 Sizing} *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()]: what this machine can truly run
    in parallel. *)
