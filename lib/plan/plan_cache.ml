type key = {
  group : string option;
  policy_key : string option;
  query : string;
  mode : string;
  use_index : bool;
}

(* The tag scope of a plan: the element names its automaton tests.  A
   subtree update invalidates exactly the entries whose scope intersects
   the mutated subtree's tags ([invalidate_tags]); [All_tags] entries are
   swept by every such update.  Scopes are a freshness policy, not a
   correctness device — compiled plans depend on the view and the DTD,
   never on the document, so a surviving warm plan still answers
   correctly on the updated tree. *)
type scope = All_tags | Tags of string list

type 'plan entry = {
  plan : 'plan;
  scope : scope;
  mutable stamp : int;  (* recency; larger = more recently used *)
}

(* Every mutable field below is protected by [lock] — the cache is shared
   by all sessions of an engine, and with the domain-pool executor those
   sessions run on different domains concurrently.  [enabled] mirrors
   [capacity > 0] in an Atomic so the common gates (a disabled cache, the
   pre-probe in the engine) stay lock-free; the capacity is re-read under
   the lock before any table access (double-checked). *)
type 'plan t = {
  lock : Mutex.t;
  enabled : bool Atomic.t;  (* capacity > 0, maintained by set_capacity *)
  mutable capacity : int;
  table : (key, 'plan entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable tag_drops : int;
}

let create ?(capacity = 128) () =
  let capacity = max 0 capacity in
  {
    lock = Mutex.create ();
    enabled = Atomic.make (capacity > 0);
    capacity;
    table = Hashtbl.create 64;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    tag_drops = 0;
  }

let locked t f = Mutex.protect t.lock f

let capacity t = locked t (fun () -> t.capacity)

(* --- internals; caller holds [lock] -------------------------------------- *)

let touch t entry =
  t.tick <- t.tick + 1;
  entry.stamp <- t.tick

(* Eviction scans for the minimum stamp: exact LRU at O(n) per eviction,
   which only runs on an insert into a full cache — vanishingly cheap next
   to the compile that produced the plan being inserted. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.stamp <= entry.stamp -> acc
        | _ -> Some (key, entry))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1

(* --- the public face ------------------------------------------------------ *)

let find t key =
  (* Lock-free fast path: a disabled cache answers without contending. *)
  if not (Atomic.get t.enabled) then None
  else
    locked t (fun () ->
        if t.capacity = 0 then None (* double-check: raced with disabling *)
        else
          match Hashtbl.find_opt t.table key with
          | None -> None
          | Some entry ->
            t.hits <- t.hits + 1;
            touch t entry;
            Some entry.plan)

let record_miss t =
  if Atomic.get t.enabled then
    locked t (fun () -> if t.capacity > 0 then t.misses <- t.misses + 1)

let add t ?(scope = All_tags) key plan =
  if Atomic.get t.enabled then
    locked t (fun () ->
        if t.capacity > 0 then begin
          if not (Hashtbl.mem t.table key) then
            while Hashtbl.length t.table >= t.capacity do
              evict_one t
            done;
          let entry = { plan; scope; stamp = 0 } in
          touch t entry;
          Hashtbl.replace t.table key entry
        end)

let set_capacity t n =
  let n = max 0 n in
  locked t (fun () ->
      t.capacity <- n;
      Atomic.set t.enabled (n > 0);
      if n = 0 then Hashtbl.reset t.table
      else
        while Hashtbl.length t.table > n do
          evict_one t
        done)

(* Subtree-scoped invalidation, for functional updates: eagerly remove
   the entries whose scope intersects the mutated subtree's element
   names (plus every [All_tags] entry); warm entries with disjoint
   scopes survive. *)
let invalidate_tags t names =
  if names = [] then 0
  else if not (Atomic.get t.enabled) then 0
  else
    locked t (fun () ->
        let doomed =
          Hashtbl.fold
            (fun key entry acc ->
              let dies =
                match entry.scope with
                | All_tags -> true
                | Tags ts -> List.exists (fun n -> List.mem n ts) names
              in
              if dies then key :: acc else acc)
            t.table []
        in
        List.iter (Hashtbl.remove t.table) doomed;
        let n = List.length doomed in
        t.tag_drops <- t.tag_drops + n;
        n)

let to_assoc t =
  locked t (fun () ->
      [
        ("hits", t.hits);
        ("misses", t.misses);
        ("evictions", t.evictions);
        ("tag_drops", t.tag_drops);
        ("entries", Hashtbl.length t.table);
        ("capacity", t.capacity);
      ])
