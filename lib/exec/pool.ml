(* The domain-pool executor.  Plain mutex/condition plumbing from the
   OCaml 5 stdlib — no dependencies — with two deliberate shapes:

   - one FIFO queue, bounded, and submit blocks when it is full, so a
     fast producer exerts backpressure instead of queueing unbounded
     closures;
   - [domains <= 1] builds an *inline* executor that runs tasks on the
     caller with no locks at all, keeping the sequential path free of any
     pool tax. *)

type 'a state =
  | Pending
  | Done of 'a
  | Raised of exn

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

(* Per-worker counters are Atomics: workers bump their own slot, any
   domain may read a snapshot without stopping the pool. *)
type worker = {
  completed : int Atomic.t;
  failed : int Atomic.t;
}

type t = {
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  jobs : (int -> unit) Queue.t; (* each job is given its worker's index *)
  mutable stopping : bool;
  mutable domains : unit Domain.t array; (* [||] for the inline executor *)
  workers : worker array;
  inline : bool;
}

let queue_capacity = 32

let fresh_future () =
  { fm = Mutex.create (); fc = Condition.create (); state = Pending }

let fulfill fut st =
  Mutex.lock fut.fm;
  fut.state <- st;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.state with
    | Pending ->
      Condition.wait fut.fc fut.fm;
      wait ()
    | Done v ->
      Mutex.unlock fut.fm;
      v
    | Raised e ->
      Mutex.unlock fut.fm;
      raise e
  in
  wait ()

(* Run one task on worker [ix], routing the outcome into its future.  The
   catch-all is the worker's armor: a raising task is recorded and
   re-raised at [await], never on the worker's own stack.  [completed]
   counts executions (failures included — it is the load-balance view);
   [failed] marks the subset that raised. *)
let run_task workers fut f ix =
  (match f () with
  | v ->
    Atomic.incr workers.(ix).completed;
    fulfill fut (Done v)
  | exception e ->
    Atomic.incr workers.(ix).completed;
    Atomic.incr workers.(ix).failed;
    fulfill fut (Raised e))

let rec worker_loop t ix =
  Mutex.lock t.m;
  while Queue.is_empty t.jobs && not t.stopping do
    Condition.wait t.not_empty t.m
  done;
  if Queue.is_empty t.jobs then
    (* stopping, and nothing left to drain *)
    Mutex.unlock t.m
  else begin
    let job = Queue.pop t.jobs in
    Condition.signal t.not_full;
    Mutex.unlock t.m;
    job ix;
    worker_loop t ix
  end

let create ~domains =
  let n = max 1 domains in
  let inline = n <= 1 in
  let t =
    {
      m = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      jobs = Queue.create ();
      stopping = false;
      domains = [||];
      workers =
        Array.init n (fun _ ->
            { completed = Atomic.make 0; failed = Atomic.make 0 });
      inline;
    }
  in
  if not inline then
    t.domains <- Array.init n (fun ix -> Domain.spawn (fun () -> worker_loop t ix));
  t

let submit t f =
  let fut = fresh_future () in
  if t.inline then begin
    (* The future is not yet visible to any other domain: resolve it
       without touching its lock. *)
    (match f () with
    | v ->
      Atomic.incr t.workers.(0).completed;
      fut.state <- Done v
    | exception e ->
      Atomic.incr t.workers.(0).completed;
      Atomic.incr t.workers.(0).failed;
      fut.state <- Raised e)
  end
  else begin
    Mutex.lock t.m;
    while Queue.length t.jobs >= queue_capacity && not t.stopping do
      Condition.wait t.not_full t.m
    done;
    if t.stopping then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.push (run_task t.workers fut f) t.jobs;
    Condition.signal t.not_empty;
    Mutex.unlock t.m
  end;
  fut

(* Drain the queue, run everything already submitted, then join the
   workers.  Idempotent; a no-op on the inline executor. *)
let shutdown t =
  if not t.inline then begin
    Mutex.lock t.m;
    let was_stopping = t.stopping in
    t.stopping <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    Mutex.unlock t.m;
    if not was_stopping then Array.iter Domain.join t.domains
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let worker_loads t = Array.map (fun w -> Atomic.get w.completed) t.workers
let worker_failures t = Array.map (fun w -> Atomic.get w.failed) t.workers

let recommended_domains () = Domain.recommended_domain_count ()
