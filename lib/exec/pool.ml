(* The domain-pool executor.  Plain mutex/condition plumbing from the
   OCaml 5 stdlib — no dependencies — with two deliberate shapes:

   - the queue is bounded and submit blocks when it is full, so a fast
     producer exerts backpressure instead of queueing unbounded closures;
   - [domains <= 1] builds an *inline* executor that runs tasks on the
     caller with no locks at all, keeping the sequential path free of any
     pool tax.

   Scheduling is fair-share across *lanes*: every task is submitted to a
   lane (the default lane when the caller names none; one lane per
   user group in the engine), each lane keeps its own FIFO, and
   workers pick lanes round-robin, one task per turn.  A lane that
   floods the pool therefore delays only its own queue — other lanes
   keep their one-task-per-turn service rate no matter how deep the hot
   lane's backlog grows.  With a single active lane this degenerates to
   the old global FIFO exactly. *)

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

(* Lane invariants (all under [m]): [queued] is the total backlog over
   every lane; a lane name sits in [rr] exactly once iff its queue is
   non-empty; an emptied lane is removed from [lanes] so the table stays
   bounded by the number of lanes with work in flight. *)
type t = {
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  lanes : (string, (int -> unit) Queue.t) Hashtbl.t;
      (* per-lane FIFO of jobs, each given its worker's index *)
  rr : string Queue.t; (* round-robin order over non-empty lanes *)
  mutable queued : int; (* total jobs across lanes *)
  queue_capacity : int;
  mutable stopping : bool;
  mutable domains : unit Domain.t array; (* [||] for the inline executor *)
  workers : worker array;
  inline : bool;
}

let size t = Array.length t.workers
let is_inline t = t.inline

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

let await_result fut =
  match await fut with v -> Ok v | exception e -> Error e

let peek fut =
  Mutex.lock fut.fm;
  let r = match fut.state with Done v -> Some v | Pending | Raised _ -> None in
  Mutex.unlock fut.fm;
  r

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

(* Pop the next job fair-share: take the lane at the head of the
   round-robin order, serve one task from it, and send the lane to the
   back of the order if it still has work.  Caller holds [m]. *)
let pop_fair t =
  let lane = Queue.pop t.rr in
  let laneq = Hashtbl.find t.lanes lane in
  let job = Queue.pop laneq in
  t.queued <- t.queued - 1;
  if Queue.is_empty laneq then Hashtbl.remove t.lanes lane
  else Queue.push lane t.rr;
  job

let rec worker_loop t ix =
  Mutex.lock t.m;
  while t.queued = 0 && not t.stopping do
    Condition.wait t.not_empty t.m
  done;
  if t.queued = 0 then
    (* stopping, and nothing left to drain *)
    Mutex.unlock t.m
  else begin
    let job = pop_fair t in
    Condition.signal t.not_full;
    Mutex.unlock t.m;
    job ix;
    worker_loop t ix
  end

let create ?queue_capacity ~domains () =
  let n = max 1 domains in
  let inline = n <= 1 in
  let qcap =
    max 1 (Option.value queue_capacity ~default:(max 32 (4 * n)))
  in
  let t =
    {
      m = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      lanes = Hashtbl.create 8;
      rr = Queue.create ();
      queued = 0;
      queue_capacity = qcap;
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

let submit ?(lane = "") t f =
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
    while t.queued >= t.queue_capacity && not t.stopping do
      Condition.wait t.not_full t.m
    done;
    if t.stopping then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    let laneq =
      match Hashtbl.find_opt t.lanes lane with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.add t.lanes lane q;
        Queue.push lane t.rr;
        q
    in
    Queue.push (run_task t.workers fut f) laneq;
    t.queued <- t.queued + 1;
    Condition.signal t.not_empty;
    Mutex.unlock t.m
  end;
  fut

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

let with_pool ?queue_capacity ~domains f =
  let t = create ?queue_capacity ~domains () in
  match f t with
  | v ->
    shutdown t;
    v
  | exception e ->
    shutdown t;
    raise e

let worker_loads t = Array.map (fun w -> Atomic.get w.completed) t.workers
let worker_failures t = Array.map (fun w -> Atomic.get w.failed) t.workers

let recommended_domains () = Domain.recommended_domain_count ()
