(** A fixed pool of OCaml 5 domains serving a bounded work queue — the
    executor that turns the SMOQE engine into a multicore server.

    The pool is spawned {e once} (domain spawn costs milliseconds and a
    thread stack; per-query spawning would dwarf query latency) and sized
    explicitly: one worker domain per requested job.  Work arrives through
    {!submit}, which enqueues a thunk and returns a {!future}; the queue is
    bounded, so a producer that outruns the workers blocks in [submit]
    rather than growing the heap without limit (backpressure, not
    buffering).

    {b The sequential escape hatch.}  [create ~domains:1] (or [0]) builds
    the {e inline} executor: no domain is spawned, no queue exists, and
    {!submit} runs the thunk immediately on the caller — the future is
    already resolved when it is returned.  This is what keeps
    [--jobs 1] within noise of the pre-pool engine: the sequential path
    pays one closure allocation, no locks, no context switch.

    {b What tasks may touch.}  The pool itself makes no safety promises
    about the closures it runs — they execute concurrently on distinct
    domains.  Thunks submitted by the SMOQE engine close over
    domain-safe state only: the immutable document tree and TAX index
    snapshot, the mutex-guarded plan cache, and a per-task
    [Budget]/[Stats] instance created inside the thunk (see DESIGN.md §9,
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

val create : ?queue_capacity:int -> domains:int -> unit -> t
(** [create ~domains:n ()] spawns [n] worker domains ([n >= 2]), or the
    inline executor for [n <= 1].  [queue_capacity] bounds the number of
    tasks waiting to run (default [max 32 (4 * n)]); a full queue blocks
    {!submit} until a worker drains it. *)

val size : t -> int
(** Worker count: [1] for the inline executor. *)

val is_inline : t -> bool
(** True when no domains were spawned and tasks run on the caller. *)

val submit : ?lane:string -> t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  Blocks while the queue is full (the bound is the
    {e total} backlog across lanes); raises [Invalid_argument] if the
    pool has been {!shutdown}.  On the inline executor the task runs
    before [submit] returns.

    [~lane] names the fair-share lane (default: one shared lane — the
    pre-lane FIFO behavior).  Each lane is a FIFO of its own; workers
    serve non-empty lanes round-robin, one task per turn, so a lane that
    floods the pool — a hot group — delays only its own backlog while
    every other lane keeps its service rate.  Backpressure is global:
    a full pool blocks every submitter regardless of lane. *)

val await : 'a future -> 'a
(** Block until the task has run; return its value or re-raise the
    exception it died with.  Any domain may await any future, any number
    of times. *)

val await_result : 'a future -> ('a, exn) result
(** Like {!await}, with the task's exception reified instead of
    re-raised. *)

val peek : 'a future -> 'a option
(** [Some v] if the task has completed with [v]; [None] while pending or
    when it raised. *)

val shutdown : t -> unit
(** Drain the queue, run everything already submitted, then join the
    worker domains.  Subsequent {!submit}s raise.  Idempotent; a no-op on
    the inline executor. *)

val with_pool : ?queue_capacity:int -> domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] — {!create}, run [f], {!shutdown} (also on
    exception). *)

(** {1 Per-domain accounting} *)

val worker_loads : t -> int array
(** Tasks {e executed} per worker, index [0 .. size - 1] — the
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
