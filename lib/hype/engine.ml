module Nfa = Smoqe_automata.Nfa
module Afa = Smoqe_automata.Afa
module Mfa = Smoqe_automata.Mfa
module Tables = Smoqe_automata.Tables
module Reachability = Smoqe_automata.Reachability
module Shared = Smoqe_automata.Shared
module Budget = Smoqe_robust.Budget

exception Driver_error of string

type kind =
  | El of string
  | Tx_sub of string * int * int

type verdict =
  | Alive
  | Dead

(* A selection run: an NFA state positioned at the current node with the
   qualifier conditions assumed so far.

   Qualifiers (the AFA side of the MFA) do not use runs with conditions:
   the engine propagates the set of {e active} AFA states downward (which
   atom automata could still make progress here) and computes their
   satisfaction bottom-up at each leave — HyPE's hybrid: NFA top-down,
   AFA settled on the way back up, one traversal total. *)
type item = {
  state : Nfa.state;
  conds : Conds.set;
}

(* Frames live in a pool indexed by depth and are reused across siblings.

   With tables, the selection items are split: the condition-free portion
   is a canonical sorted state array ([set_states], interned into the
   lazy-DFA registry as [set_id]), and only items carrying conds stay as a
   list ([items]).  [set_states] is the source of truth — [set_id] is
   a cache valid only while [set_epoch] matches the engine's registry
   epoch, and is re-interned lazily after a registry flush.  The generic
   path keeps [set_states] empty and every item in [items]. *)
type frame = {
  mutable node : int;
  mutable kind : kind;
  mutable tag : int; (* interned tag (table path); Tables.text_tag for text *)
  mutable set_states : int array; (* check-free item states (table path) *)
  mutable set_id : int;
  mutable set_epoch : int;
  mutable items : item list; (* post-closure items outside [set_states] *)
  mutable active : int list; (* active AFA states at this node *)
  mutable quals_here : int list; (* qualifiers to settle at this node *)
  mutable requested : int list; (* subset assumed by selection runs *)
  mutable may_accept_value : bool; (* some active state has a value accept *)
  mutable sat : Bytes.t; (* per active state: accepts within the subtree *)
  mutable contrib : Bytes.t; (* facts pushed up by the children *)
  mutable mark : Bytes.t; (* membership in [active] *)
  here_mark : Bytes.t; (* membership in [quals_here], per qualifier *)
  req_slot : int array; (* per qualifier: its slot here, -1 if not requested *)
  mutable text_acc : Buffer.t option; (* immediate text (element value) *)
}

(* A memoized lazy-DFA transition: the interned next check-free set (id
   plus the registry's arrays, denormalized so a hit costs no further
   indirection), and the check-guarded states reached during its closure.
   Seeds are re-processed per node through the generic item machinery so
   their node-local Conds are attached — qualifiers are memo-exempt. *)
type trans = {
  next_id : int;
  next_states : int array;
  next_accepts : int array;
  seeds : int array;
}

(* Sentinel for empty memo slots: [next_id] is never negative for a real
   transition, so one int compare distinguishes hit from miss. *)
let no_trans = { next_id = -1; next_states = [||]; next_accepts = [||]; seeds = [||] }

type t = {
  mfa : Mfa.t;
  tables : Tables.t option;
  (* per-state statics *)
  value_accepts : string array array; (* value constraints on atom accepts *)
  plain_accept : bool array; (* has an unconditional atom accept *)
  select_accept : bool array;
  atom_starts : int array array; (* per qualifier: its atoms' entry states *)
  qual_order : int array; (* dependency-topological same-node order *)
  has_value_atoms : bool;
  n_quals : int;
  (* batch demultiplexing: the merge's owner table, the query that selects
     at each accept state.  Candidate recording adds the (node, conds)
     entry to that owner's Cans. *)
  owners : int array;
  n_queries : int;
  (* dynamics *)
  (* The slot table: one slot per (qualifier, node) a selection run
     assumed, numbered in request order.  Three columns indexed by slot,
     each grown by doubling: the published value, and the qualifier and
     node that took the slot (for the unresolved-condition diagnostic). *)
  mutable slot_val : Bytes.t; (* slot_unset, slot_false or slot_true *)
  mutable slot_qual : int array;
  mutable slot_node : int array;
  mutable n_slots : int;
  cans : Cans.t array; (* one per query *)
  stats : Stats.t;
  trace : Trace.t option;
  mutable frames : frame array;
  mutable depth : int;
  mutable out_items : item list; (* selection-closure workspace *)
  mutable n_out : int;
  item_mark : Bytes.t; (* per-state closure dedup: bit0 = seen with empty
                          conds, bit1 = seen with conds (scan needed) *)
  closure_mark : Bytes.t; (* lazy-DFA set-closure scratch *)
  (* lazy-DFA registry: interned check-free state sets, per-run *)
  mutable dfa_sets : int array array; (* id -> canonical sorted states *)
  mutable dfa_accepts : int array array; (* id -> select-accepting subset *)
  mutable dfa_n : int;
  dfa_ids : (string, int) Hashtbl.t; (* packed states -> id *)
  mutable memo_rows : trans array array; (* tag+1 -> set id -> transition *)
  mutable dfa_epoch : int; (* bumped on registry flush *)
  memo_cap : int; (* distinct sets before the registry is flushed *)
  qvals : bool array; (* per-leave qualifier scratch *)
  qval_epoch : int array; (* node-epoch in which each entry was settled *)
  mutable epoch : int;
  mutable entered_candidate : bool; (* last enter recorded a candidate *)
  mutable finished : bool;
  (* Fired from [enter] every 32nd node with the running node count, so a
     driver can settle resource budgets without per-node work of its own.
     The land-and-branch is paid by every run; the callback only by
     budgeted ones. *)
  mutable on_checkpoint : (int -> unit) option;
}

let fresh_frame n_states n_quals () =
  {
    node = -1;
    kind = El "";
    tag = Tables.unknown_tag;
    set_states = [||];
    set_id = -1;
    set_epoch = -1;
    items = [];
    active = [];
    quals_here = [];
    requested = [];
    may_accept_value = false;
    sat = Bytes.make n_states '\000';
    contrib = Bytes.make n_states '\000';
    mark = Bytes.make n_states '\000';
    here_mark = Bytes.make (max 1 n_quals) '\000';
    req_slot = Array.make (max 1 n_quals) (-1);
    text_acc = None;
  }

let slot_unset = '\000'
let slot_false = '\001'
let slot_true = '\002'
let slot_cap0 = 256

let create ?trace ?tables ?(memo_cap = 4096) (sh : Shared.t) =
  let mfa = sh.Shared.mfa and n_queries = sh.Shared.n_queries in
  (match tables with
  | Some tb when Tables.nfa tb != mfa.Mfa.nfa ->
    raise (Driver_error "tables built for a different automaton")
  | Some _ | None -> ());
  let nfa = mfa.Mfa.nfa in
  let n_states = nfa.Nfa.n_states in
  let n_quals = Array.length mfa.Mfa.quals in
  let value_accepts = Array.make n_states [||] in
  let plain_accept = Array.make n_states false in
  let select_accept = Array.make n_states false in
  for s = 0 to n_states - 1 do
    let values = ref [] in
    List.iter
      (fun accept ->
        match accept with
        | Nfa.Select -> select_accept.(s) <- true
        | Nfa.Atom_accept aid ->
          (match (mfa.Mfa.atoms.(aid)).Afa.value with
          | None -> plain_accept.(s) <- true
          | Some c -> values := c :: !values))
      nfa.Nfa.accepts.(s);
    value_accepts.(s) <- Array.of_list !values
  done;
  let atom_starts =
    Array.map
      (fun formula ->
        Array.of_list
          (List.map
             (fun aid -> (mfa.Mfa.atoms.(aid)).Afa.start)
             (Afa.atoms_of formula)))
      mfa.Mfa.quals
  in
  (* Same-node settlement order: a qualifier depends on the qualifiers
     checked inside its atom subgraphs (nested view qualifiers, or the
     view-definition qualifiers a rewritten MFA splices into product
     atoms).  Acyclic by construction. *)
  let qual_order =
    let deps =
      Array.map
        (fun formula ->
          let states =
            List.concat_map
              (fun aid ->
                Nfa.reachable_states nfa (mfa.Mfa.atoms.(aid)).Afa.start)
              (Afa.atoms_of formula)
          in
          List.sort_uniq compare
            (List.concat_map (fun s -> nfa.Nfa.checks.(s)) states))
        mfa.Mfa.quals
    in
    let color = Array.make n_quals 0 in
    let order = ref [] in
    let rec visit q =
      if color.(q) = 1 then raise (Driver_error "cyclic qualifier dependency")
      else if color.(q) = 0 then begin
        color.(q) <- 1;
        List.iter visit deps.(q);
        color.(q) <- 2;
        order := q :: !order
      end
    in
    for q = 0 to n_quals - 1 do
      visit q
    done;
    Array.of_list (List.rev !order)
  in
  let has_value_atoms =
    Array.exists (fun (a : Afa.atom) -> a.Afa.value <> None) mfa.Mfa.atoms
  in
  {
    mfa;
    tables;
    value_accepts;
    plain_accept;
    select_accept;
    atom_starts;
    qual_order;
    has_value_atoms;
    n_quals;
    owners = sh.Shared.owners;
    n_queries;
    slot_val = Bytes.make slot_cap0 slot_unset;
    slot_qual = Array.make slot_cap0 0;
    slot_node = Array.make slot_cap0 0;
    n_slots = 0;
    cans = Array.init n_queries (fun _ -> Cans.create ());
    stats = Stats.create ();
    trace;
    frames = Array.init 64 (fun _ -> fresh_frame n_states n_quals ());
    depth = 0;
    out_items = [];
    n_out = 0;
    item_mark = Bytes.make n_states '\000';
    closure_mark = Bytes.make n_states '\000';
    dfa_sets = Array.make 64 [||];
    dfa_accepts = Array.make 64 [||];
    dfa_n = 0;
    dfa_ids = Hashtbl.create 256;
    memo_rows = [||];
    dfa_epoch = 0;
    memo_cap = max 2 memo_cap;
    qvals = Array.make (max 1 n_quals) false;
    qval_epoch = Array.make (max 1 n_quals) (-1);
    epoch = 0;
    entered_candidate = false;
    finished = false;
    on_checkpoint = None;
  }

let stats t = t.stats
let cans_size t = Array.fold_left (fun acc c -> acc + Cans.size c) 0 t.cans
let set_checkpoint t f = t.on_checkpoint <- Some f

let trace_mark t node m =
  match t.trace with None -> () | Some tr -> Trace.mark tr node m

(* --- active AFA state propagation ---------------------------------------- *)

(* Activate an AFA state at a frame: mark it, follow its epsilon edges, and
   make sure the qualifiers it checks will be settled here (spawning their
   atoms' entry states in turn). *)
let rec activate t frame s =
  if Bytes.get frame.mark s = '\000' then begin
    Bytes.set frame.mark s '\001';
    Bytes.set frame.sat s '\000';
    Bytes.set frame.contrib s '\000';
    frame.active <- s :: frame.active;
    if Array.length t.value_accepts.(s) > 0 then
      frame.may_accept_value <- true;
    let nfa = t.mfa.Mfa.nfa in
    note_quals t frame nfa.Nfa.checks.(s);
    activate_list t frame nfa.Nfa.eps.(s)
  end

and activate_list t frame = function
  | [] -> ()
  | s :: rest ->
    activate t frame s;
    activate_list t frame rest

and activate_array t frame states =
  for i = 0 to Array.length states - 1 do
    activate t frame states.(i)
  done

and note_quals t frame = function
  | [] -> ()
  | q :: rest ->
    note_qual t frame q;
    note_quals t frame rest

and note_qual t frame q =
  if Bytes.get frame.here_mark q = '\000' then begin
    Bytes.set frame.here_mark q '\001';
    frame.quals_here <- q :: frame.quals_here;
    t.stats.Stats.atom_instances <-
      t.stats.Stats.atom_instances + Array.length t.atom_starts.(q);
    activate_array t frame t.atom_starts.(q)
  end

(* --- selection-run closure ------------------------------------------------ *)

(* Per-node item dedup via [t.item_mark]: items with empty conds are
   uniquely keyed by state (bit 0); items carrying conds set bit 1 and
   fall back to scanning only the (typically short) workspace list for a
   same-state-same-conds twin.  Marks are cleared by [take_items]. *)
let rec has_twin s conds = function
  | [] -> false
  | (it : item) :: rest ->
    (it.state = s && Conds.compare_set it.conds conds = 0)
    || has_twin s conds rest

(* Add one candidate entry to the Cans of the query owning state [s]. *)
let record_candidate t node s conds =
  t.stats.Stats.candidates <- t.stats.Stats.candidates + 1;
  t.entered_candidate <- true;
  trace_mark t node Trace.In_cans;
  Cans.add t.cans.(t.owners.(s)) ~node conds

(* Double every column of a full slot table. *)
let grow_slots t =
  let used = t.n_slots in
  t.slot_val <- Bytes.cat t.slot_val (Bytes.make used slot_unset);
  t.slot_qual <- Array.append t.slot_qual (Array.make used 0);
  t.slot_node <- Array.append t.slot_node (Array.make used 0)

(* The first request of qualifier [q] at the frame's node takes the next
   slot; the frame remembers it for every later request of [q] here. *)
let take_slot t frame q =
  let slot = t.n_slots in
  if slot >= Bytes.length t.slot_val then grow_slots t;
  t.slot_qual.(slot) <- q;
  t.slot_node.(slot) <- frame.node;
  t.n_slots <- slot + 1;
  frame.req_slot.(q) <- slot;
  frame.requested <- q :: frame.requested;
  slot

let rec push_item t frame item =
  let nfa = t.mfa.Mfa.nfa in
  let checks = nfa.Nfa.checks.(item.state) in
  let item =
    match checks with
    | [] -> item
    | _ :: _ -> { item with conds = add_checks t frame item.conds checks }
  in
  let s = item.state in
  let m = Char.code (Bytes.get t.item_mark s) in
  let empty = Conds.is_empty item.conds in
  let dup =
    if empty then m land 1 <> 0
    else m land 2 <> 0 && has_twin s item.conds t.out_items
  in
  if not dup then begin
    (* a state's conditions count once per surviving item, so two runs
       converging on one guarded state count as one *)
    t.stats.Stats.conds_created <-
      t.stats.Stats.conds_created + List.length checks;
    Bytes.set t.item_mark s (Char.chr (m lor if empty then 1 else 2));
    t.out_items <- item :: t.out_items;
    t.n_out <- t.n_out + 1;
    if t.select_accept.(s) then record_candidate t frame.node s item.conds;
    push_eps t frame item nfa.Nfa.eps.(s)
  end

and add_checks t frame conds = function
  | [] -> conds
  | q :: rest ->
    note_qual t frame q;
    let slot = frame.req_slot.(q) in
    let slot = if slot >= 0 then slot else take_slot t frame q in
    add_checks t frame (Conds.add slot conds) rest

and push_eps t frame item = function
  | [] -> ()
  | s' :: rest ->
    push_item t frame { item with state = s' };
    push_eps t frame item rest

let push_seeds t frame seeds =
  for i = 0 to Array.length seeds - 1 do
    push_item t frame { state = seeds.(i); conds = Conds.empty }
  done

let rec clear_item_marks mark = function
  | [] -> ()
  | (it : item) :: rest ->
    Bytes.set mark it.state '\000';
    clear_item_marks mark rest

(* Drain the closure workspace and clear its dedup marks. *)
let take_items t =
  let items = t.out_items in
  clear_item_marks t.item_mark items;
  t.out_items <- [];
  items

let kind_matches test kind =
  match kind with
  | El name -> Nfa.matches_name test ~is_element:true ~name
  | Tx_sub _ -> Nfa.matches_name test ~is_element:false ~name:""

(* --- lazy-DFA registry and memo ------------------------------------------- *)

let key_of_states states =
  let b = Buffer.create (4 * Array.length states) in
  Array.iter (fun s -> Buffer.add_int32_le b (Int32.of_int s)) states;
  Buffer.contents b

(* Intern a canonical (sorted) check-free state set.  When the registry
   exceeds [memo_cap] distinct sets the lazy DFA is flushed wholesale —
   registry, memo and epoch — rather than evicted piecemeal; frames hold
   their states array as source of truth and re-intern lazily. *)
let intern_set t states =
  let key = key_of_states states in
  match Hashtbl.find_opt t.dfa_ids key with
  | Some id -> id
  | None ->
    if t.dfa_n >= t.memo_cap then begin
      Hashtbl.reset t.dfa_ids;
      t.memo_rows <- [||];
      t.dfa_n <- 0;
      t.dfa_epoch <- t.dfa_epoch + 1;
      t.stats.Stats.memo_evictions <- t.stats.Stats.memo_evictions + 1
    end;
    let id = t.dfa_n in
    if id >= Array.length t.dfa_sets then begin
      let n = 2 * Array.length t.dfa_sets in
      let sets = Array.make n [||] in
      let accs = Array.make n [||] in
      Array.blit t.dfa_sets 0 sets 0 id;
      Array.blit t.dfa_accepts 0 accs 0 id;
      t.dfa_sets <- sets;
      t.dfa_accepts <- accs
    end;
    t.dfa_sets.(id) <- states;
    t.dfa_accepts.(id) <-
      (match Array.to_list states |> List.filter (fun s -> t.select_accept.(s))
       with
      | [] -> [||]
      | l -> Array.of_list l);
    t.dfa_n <- id + 1;
    Hashtbl.add t.dfa_ids key id;
    id

let frame_set_id t frame =
  if frame.set_id >= 0 && frame.set_epoch = t.dfa_epoch then frame.set_id
  else begin
    let id = intern_set t frame.set_states in
    frame.set_id <- id;
    frame.set_epoch <- t.dfa_epoch;
    id
  end

(* Closure of transition targets, split by check status: check-free states
   follow their epsilon edges into the bitset half ([next]); states with
   checks stop as [seeds] — their closure continues per node under the
   conds [push_item] attaches. *)
let close_collect t feed =
  let nfa = t.mfa.Mfa.nfa in
  let cmark = t.closure_mark in
  let next = ref [] in
  let seeds = ref [] in
  let rec close s =
    if Bytes.get cmark s = '\000' then begin
      Bytes.set cmark s '\001';
      if nfa.Nfa.checks.(s) = [] then begin
        next := s :: !next;
        List.iter close nfa.Nfa.eps.(s)
      end
      else seeds := s :: !seeds
    end
  in
  feed close;
  List.iter (fun s -> Bytes.set cmark s '\000') !next;
  List.iter (fun s -> Bytes.set cmark s '\000') !seeds;
  let next = Array.of_list !next in
  Array.sort Int.compare next;
  let seeds = Array.of_list !seeds in
  Array.sort Int.compare seeds;
  (next, seeds)

(* Record a transition under [memo_rows.(tag + 1).(sid)], growing the
   outer (tag) and inner (set-id) arrays on demand; both index spaces are
   small and dense, so the memo is a flat table rather than a hash. *)
let memo_store t tag1 sid tr =
  if tag1 >= Array.length t.memo_rows then begin
    let n = max 8 (max (tag1 + 1) (2 * Array.length t.memo_rows)) in
    let rows = Array.make n [||] in
    Array.blit t.memo_rows 0 rows 0 (Array.length t.memo_rows);
    t.memo_rows <- rows
  end;
  let row = t.memo_rows.(tag1) in
  let row =
    if sid < Array.length row then row
    else begin
      let n = max (Array.length t.dfa_sets) (sid + 1) in
      let bigger = Array.make n no_trans in
      Array.blit row 0 bigger 0 (Array.length row);
      t.memo_rows.(tag1) <- bigger;
      bigger
    end
  in
  row.(sid) <- tr

(* One lazy-DFA step: [(parent's check-free set, tag) -> trans], memoized.
   [tag + 1] keeps the [unknown_tag] sentinel non-negative.
   The hit path is two array loads and an int compare — no hashing, no
   allocation. *)
let table_step t tb parent tag =
  let sid = frame_set_id t parent in
  let tag1 = tag + 1 in
  let tr =
    if tag1 < Array.length t.memo_rows then begin
      let row = Array.unsafe_get t.memo_rows tag1 in
      if sid < Array.length row then Array.unsafe_get row sid else no_trans
    end
    else no_trans
  in
  if tr.next_id >= 0 then begin
    t.stats.Stats.memo_hits <- t.stats.Stats.memo_hits + 1;
    tr
  end
  else begin
    t.stats.Stats.memo_misses <- t.stats.Stats.memo_misses + 1;
    let next, seeds =
      close_collect t (fun close ->
          Array.iter
            (fun s -> Array.iter close (Tables.targets tb s tag))
            parent.set_states)
    in
    let epoch0 = t.dfa_epoch in
    let next_id = intern_set t next in
    let tr =
      { next_id; next_states = t.dfa_sets.(next_id);
        next_accepts = t.dfa_accepts.(next_id); seeds }
    in
    (* If interning [next] flushed the registry, [sid] belongs to the dead
       epoch: the entry would pair a stale key with a live id. *)
    if t.dfa_epoch = epoch0 then memo_store t tag1 sid tr;
    tr
  end

(* Candidates selected by the check-free set: unconditional Cans entries,
   one per accepting state (mirrors the generic per-item recording). *)
let record_set_candidates t node accepts =
  for i = 0 to Array.length accepts - 1 do
    record_candidate t node accepts.(i) Conds.empty
  done

(* --- frames ---------------------------------------------------------------- *)

let rec clear_marks bits = function
  | [] -> ()
  | i :: rest ->
    Bytes.set bits i '\000';
    clear_marks bits rest

let rec clear_slots slots = function
  | [] -> ()
  | q :: rest ->
    slots.(q) <- -1;
    clear_slots slots rest

let clear_frame frame =
  (* Reset the bitsets touched by the previous tenant of this depth. *)
  clear_marks frame.sat frame.active;
  clear_marks frame.contrib frame.active;
  clear_marks frame.mark frame.active;
  frame.active <- [];
  clear_marks frame.here_mark frame.quals_here;
  clear_slots frame.req_slot frame.requested;
  frame.quals_here <- [];
  frame.requested <- []

let push_frame t id tag kind =
  if t.depth >= Array.length t.frames then begin
    let n_states = t.mfa.Mfa.nfa.Nfa.n_states in
    let bigger =
      Array.init (2 * Array.length t.frames) (fun i ->
          if i < Array.length t.frames then t.frames.(i)
          else fresh_frame n_states t.n_quals ())
    in
    t.frames <- bigger
  end;
  let frame = t.frames.(t.depth) in
  t.depth <- t.depth + 1;
  clear_frame frame;
  frame.node <- id;
  frame.kind <- kind;
  frame.tag <- tag;
  frame.set_states <- [||];
  frame.set_id <- -1;
  frame.set_epoch <- -1;
  frame.items <- [];
  frame.may_accept_value <- false;
  frame.text_acc <- None;
  t.out_items <- [];
  t.n_out <- 0;
  frame

(* Text accumulation: element values are needed when a value-equality atom
   can accept at the parent, so immediate text is collected only then. *)
let value_buf parent =
  match parent.text_acc with
  | Some buf -> buf
  | None ->
    let buf = Buffer.create 16 in
    parent.text_acc <- Some buf;
    buf

let accumulate_text parent kind =
  match kind with
  | Tx_sub (s, off, len) when parent.may_accept_value ->
    Buffer.add_substring (value_buf parent) s off len
  | Tx_sub _ | El _ -> ()

(* --- enter ----------------------------------------------------------------- *)

(* One step of a state into the entered node: the state's table column for
   [tag], or on the generic path the targets of its NFA edges whose test
   matches [kind]. *)
let rec any_edge kind = function
  | [] -> false
  | (test, _) :: more -> kind_matches test kind || any_edge kind more

let has_step t tag kind s =
  match t.tables with
  | Some tb -> Array.length (Tables.targets tb s tag) > 0
  | None -> any_edge kind t.mfa.Mfa.nfa.Nfa.delta.(s)

let rec any_step t tag kind = function
  | [] -> false
  | s :: rest -> has_step t tag kind s || any_step t tag kind rest

let rec any_item_step t tag kind = function
  | [] -> false
  | (it : item) :: rest ->
    has_step t tag kind it.state || any_item_step t tag kind rest

(* Active AFA states: consumable continuations of the parent's. *)
let rec activate_edges t frame kind = function
  | [] -> ()
  | (test, s') :: more ->
    if kind_matches test kind then activate t frame s';
    activate_edges t frame kind more

let rec activate_steps t frame tag kind = function
  | [] -> ()
  | s :: rest ->
    (match t.tables with
    | Some tb -> activate_array t frame (Tables.targets tb s tag)
    | None -> activate_edges t frame kind t.mfa.Mfa.nfa.Nfa.delta.(s));
    activate_steps t frame tag kind rest

let rec push_edges t frame kind (it : item) = function
  | [] -> ()
  | (test, s') :: more ->
    if kind_matches test kind then push_item t frame { it with state = s' };
    push_edges t frame kind it more

let rec push_steps t frame tag kind = function
  | [] -> ()
  | (it : item) :: rest ->
    (match t.tables with
    | Some tb ->
      let tg = Tables.targets tb it.state tag in
      for i = 0 to Array.length tg - 1 do
        push_item t frame { it with state = tg.(i) }
      done
    | None -> push_edges t frame kind it t.mfa.Mfa.nfa.Nfa.delta.(it.state));
    push_steps t frame tag kind rest

(* Close the entered node's item workspace and count it alive. *)
let alive t frame =
  frame.items <- take_items t;
  let n_items = Array.length frame.set_states + t.n_out in
  if n_items > t.stats.Stats.max_items then
    t.stats.Stats.max_items <- n_items;
  t.stats.Stats.nodes_alive <- t.stats.Stats.nodes_alive + 1;
  trace_mark t frame.node Trace.Visited;
  Alive

let enter_node t ~id ~tag ~kind =
  if t.depth = 0 then begin
    let frame = push_frame t id tag kind in
    (match t.tables with
    | None -> push_item t frame { state = t.mfa.Mfa.start; conds = Conds.empty }
    | Some _ ->
      let next, seeds = close_collect t (fun close -> close t.mfa.Mfa.start) in
      let nid = intern_set t next in
      frame.set_states <- t.dfa_sets.(nid);
      frame.set_id <- nid;
      frame.set_epoch <- t.dfa_epoch;
      record_set_candidates t id t.dfa_accepts.(nid);
      push_seeds t frame seeds);
    alive t frame
  end
  else begin
    let parent = t.frames.(t.depth - 1) in
    accumulate_text parent kind;
    (* with tables, the check-free set takes one memoized step *)
    let tr =
      match t.tables with
      | Some tb -> table_step t tb parent tag
      | None -> no_trans
    in
    if
      Array.length tr.next_states = 0
      && Array.length tr.seeds = 0
      && (not (any_item_step t tag kind parent.items))
      && not (any_step t tag kind parent.active)
    then begin
      trace_mark t id Trace.Dead;
      Dead
    end
    else begin
      let frame = push_frame t id tag kind in
      activate_steps t frame tag kind parent.active;
      frame.set_states <- tr.next_states;
      frame.set_id <- tr.next_id;
      frame.set_epoch <- t.dfa_epoch;
      record_set_candidates t id tr.next_accepts;
      (* seeds and conditional items go through the item closure so
         node-local Conds are attached *)
      push_seeds t frame tr.seeds;
      push_steps t frame tag kind parent.items;
      alive t frame
    end
  end

let enter_core t ~id ~tag ~kind =
  if t.finished then raise (Driver_error "enter after finish");
  t.entered_candidate <- false;
  let n_entered = t.stats.Stats.nodes_entered + 1 in
  t.stats.Stats.nodes_entered <- n_entered;
  if n_entered land 31 = 0 then (
    match t.on_checkpoint with None -> () | Some f -> f n_entered);
  enter_node t ~id ~tag ~kind

let enter t ~id ~kind =
  let tag =
    match t.tables with
    | None -> Tables.unknown_tag
    | Some tb -> (
      match kind with
      | El name -> Tables.intern tb name
      | Tx_sub _ -> Tables.text_tag)
  in
  enter_core t ~id ~tag ~kind

let enter_tagged t ~id ~tag ~kind =
  let tag = match kind with Tx_sub _ -> Tables.text_tag | El _ -> tag in
  enter_core t ~id ~tag ~kind

let element_value frame =
  match frame.kind with
  | Tx_sub (s, off, len) -> String.sub s off len
  | El _ ->
    (match frame.text_acc with
    | None -> ""
    | Some buf -> Buffer.contents buf)

(* --- bottom-up AFA settlement ---------------------------------------------- *)

let rec value_in values value i =
  i < Array.length values
  && (String.equal values.(i) value || value_in values value (i + 1))

(* A qualifier not yet settled at this node reads as false: sound (sat
   never set prematurely), and the passes after its settlement catch any
   state that was waiting on it. *)
let rec checks_hold t = function
  | [] -> true
  | q :: rest -> t.qval_epoch.(q) = t.epoch && t.qvals.(q) && checks_hold t rest

let rec any_set bits = function
  | [] -> false
  | s :: rest -> Bytes.get bits s <> '\000' || any_set bits rest

(* sat(s) at a closing node: a run in state [s] here accepts within the
   (now complete) subtree — by accepting at this node, by an epsilon move
   whose checks hold here, or through a child (contributions pushed at the
   children's leaves).  Only active states matter: epsilon targets and
   check-spawned entry states of active states are active by closure. *)
let try_state t frame value s =
  let nfa = t.mfa.Mfa.nfa in
  Bytes.get frame.mark s <> '\000'
  && Bytes.get frame.sat s = '\000'
  && checks_hold t nfa.Nfa.checks.(s)
  && (Bytes.get frame.contrib s <> '\000'
     || t.plain_accept.(s)
     || value_in t.value_accepts.(s) value 0
     || any_set frame.sat nfa.Nfa.eps.(s))

(* One pass over [states]; true if some state became satisfied. *)
let rec settle_pass t frame value changed = function
  | [] -> changed
  | s :: rest ->
    let now = try_state t frame value s in
    if now then Bytes.set frame.sat s '\001';
    settle_pass t frame value (changed || now) rest

let rec fixpoint t frame value =
  if settle_pass t frame value false frame.active then fixpoint t frame value

let rec qual_holds t sat = function
  | Afa.F_true -> true
  | Afa.F_atom aid -> Bytes.get sat (t.mfa.Mfa.atoms.(aid)).Afa.start <> '\000'
  | Afa.F_not f -> not (qual_holds t sat f)
  | Afa.F_and (a, b) -> qual_holds t sat a && qual_holds t sat b
  | Afa.F_or (a, b) -> qual_holds t sat a || qual_holds t sat b

(* Publish the values selection runs assumed at this node into their
   slots. *)
let rec publish t frame = function
  | [] -> ()
  | q :: rest ->
    Bytes.set t.slot_val frame.req_slot.(q)
      (if t.qvals.(q) then slot_true else slot_false);
    t.stats.Stats.quals_resolved <- t.stats.Stats.quals_resolved + 1;
    publish t frame rest

let rec sat_edge kind sat = function
  | [] -> false
  | (test, s') :: more ->
    (kind_matches test kind && Bytes.get sat s' <> '\000')
    || sat_edge kind sat more

let rec sat_target sat tg i =
  i < Array.length tg
  && (Bytes.get sat tg.(i) <> '\000' || sat_target sat tg (i + 1))

(* Can state [s] step into the closing node and accept inside it? *)
let steps_into_sat t frame s =
  match t.tables with
  | Some tb -> sat_target frame.sat (Tables.targets tb s frame.tag) 0
  | None -> sat_edge frame.kind frame.sat t.mfa.Mfa.nfa.Nfa.delta.(s)

let rec contribute t frame parent = function
  | [] -> ()
  | s :: rest ->
    if Bytes.get parent.contrib s = '\000' && steps_into_sat t frame s then
      Bytes.set parent.contrib s '\001';
    contribute t frame parent rest

let resolve_afa t frame =
  t.epoch <- t.epoch + 1;
  let value = if frame.may_accept_value then element_value frame else "" in
  (* Settle in dependency order; each pass runs over all active states —
     strata are eps-closed inside the active set, and reruns are monotone
     no-ops. *)
  (match frame.quals_here with
  | [] -> ()
  | _ :: _ ->
    for i = 0 to Array.length t.qual_order - 1 do
      let q = t.qual_order.(i) in
      if Bytes.get frame.here_mark q <> '\000' then begin
        fixpoint t frame value;
        t.qvals.(q) <- qual_holds t frame.sat t.mfa.Mfa.quals.(q);
        t.qval_epoch.(q) <- t.epoch
      end
    done);
  fixpoint t frame value;
  publish t frame frame.requested;
  (* Contribute upward: parent-active states that can step into this node
     and accept inside it. *)
  if t.depth >= 2 then begin
    let parent = t.frames.(t.depth - 2) in
    contribute t frame parent parent.active
  end

let leave t =
  if t.depth = 0 then raise (Driver_error "leave without enter");
  let frame = t.frames.(t.depth - 1) in
  (match (frame.active, frame.quals_here) with
  | [], [] -> ()
  | _ -> resolve_afa t frame);
  t.depth <- t.depth - 1

let entered_candidate t = t.entered_candidate

let exists_live_state t p =
  if t.depth = 0 then
    raise (Driver_error "exists_live_state without a current node");
  let frame = t.frames.(t.depth - 1) in
  Array.exists p frame.set_states
  || List.exists (fun (it : item) -> p it.state) frame.items
  || List.exists p frame.active

let may_accept_value_here t =
  if t.depth = 0 then
    raise (Driver_error "may_accept_value_here without a current node");
  (t.frames.(t.depth - 1)).may_accept_value

let finish t =
  if t.depth <> 0 then raise (Driver_error "finish with open nodes");
  if t.finished then raise (Driver_error "finish called twice");
  t.finished <- true;
  let lookup slot =
    let v = Bytes.get t.slot_val slot in
    if v = slot_unset then
      raise
        (Driver_error
           (Printf.sprintf "unresolved condition q%d@%d" t.slot_qual.(slot)
              t.slot_node.(slot)))
    else v = slot_true
  in
  let per = Array.map (fun c -> Cans.resolve c ~lookup) t.cans in
  t.stats.Stats.answers <-
    Array.fold_left (fun acc l -> acc + List.length l) 0 per;
  (match t.trace with
  | None -> ()
  | Some tr ->
    Array.iter (List.iter (fun n -> Trace.mark tr n Trace.Answer)) per);
  per

type pass = {
  by_query : int list array;
  m_stats : Stats.t;
  m_cans_size : int;
  m_budget_hit : (string * string) option;
}

let run_pass ?trace ?tables ?memo_cap ?budget ~spec_us sh traverse =
  let t = create ?trace ?tables ?memo_cap sh in
  t.stats.Stats.table_spec_us <- spec_us;
  Stats.note_shared t.stats sh;
  (* The budget settles on the driver's tick count every 32 ticks, audits
     the Cans size every 256, and settles the rest after the traversal,
     so a budgeted pass adds no per-node work (the overhead guard of
     bench E10). *)
  let settled = ref 0 in
  let settle n =
    match budget with
    | None -> ()
    | Some b ->
      Budget.tick_nodes b (n - !settled);
      settled := n;
      if n land 255 = 0 then Budget.check_cans b (cans_size t)
  in
  let budget_hit =
    match
      let ticks = traverse t ~settle in
      Option.iter
        (fun b ->
          settle ticks;
          Budget.check_cans b (cans_size t);
          Budget.check_deadline b)
        budget
    with
    | () -> None
    | exception Budget.Exceeded { what; limit } -> Some (what, limit)
  in
  (* A budget stop leaves the traversal incomplete: answers cannot be
     resolved, but the counters so far are still reported. *)
  let by_query =
    match budget_hit with
    | None -> finish t
    | Some _ -> Array.make t.n_queries []
  in
  {
    by_query;
    m_stats = t.stats;
    m_cans_size = cans_size t;
    m_budget_hit = budget_hit;
  }
