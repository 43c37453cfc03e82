(** Fork-join over OCaml 5 domains: the one helper a caller uses to run
    SMOQE engine queries on many cores.

    {b What tasks may touch.}  [run] makes no safety promises about the
    thunks it runs — they execute concurrently on distinct domains.  The
    SMOQE engine's query path is domain-safe: a task that calls
    [Engine.query_robust] shares only the immutable document tree and TAX
    index snapshot and the mutex-guarded plan cache, and should build its
    own [Budget] inside the thunk (see DESIGN.md §9, "Concurrency
    model"). *)

val run : domains:int -> (unit -> 'a) list -> ('a, exn) result list
(** [run ~domains tasks] runs every task once and returns the outcomes in
    input order.  It spawns [min domains n - 1] helper domains for [n]
    tasks and works on the calling domain too; each domain claims the next
    unclaimed task until none is left, and [run] returns after joining the
    helpers.  A task that raises yields [Error exn] in its own slot; the
    other tasks still run.  [domains <= 1] spawns nothing and runs the
    tasks on the caller, in order. *)
