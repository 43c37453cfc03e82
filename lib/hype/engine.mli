(** The HyPE core: an event-driven MFA run over one depth-first document
    traversal (paper §3, Evaluator).

    The engine is document-representation agnostic: {!Eval_dom} drives it
    from a tree, {!Eval_stax} from a parser cursor.
    Drivers feed it a pre-order visit: [enter] at each node, [leave] when
    its subtree closes.

    Single-pass discipline: at [enter] the engine advances all active runs
    (selection and qualifier atoms) into the node, instantiates newly
    requested qualifiers, and records candidates into Cans under the
    conditions the runs have assumed; at [leave] it settles the node's
    qualifier instances (their runs can only have explored the now-complete
    subtree).  [finish] resolves Cans in one final sweep.

    Driver contract:
    - the first [enter] is the document root;
    - every [Alive] enter is matched by exactly one [leave]; [Dead] enters
      by none;
    - children of a node whose [enter] returned [Dead] must not be entered;
    - text children of alive nodes must always be entered (the engine
      accumulates them to form element values for equality tests). *)

type t

type kind =
  | El of string  (** element with this tag *)
  | Tx_sub of string * int * int
      (** text node whose content is the slice [(backing, off, len)] — a
          borrowed span of the driver's bytes (a tree's regions, a
          parser's buffer), never a copy.  The engine reads it during
          {!enter} and the node's own {!leave} only, so a span valid
          across that enter/leave pair (a text node leaves immediately —
          it has no children) is all a driver must guarantee. *)

type verdict =
  | Alive  (** at least one run is active: descend into the children *)
  | Dead
      (** no run matched: the subtree cannot contribute.  A [Dead] enter
          pushes nothing — it has {e no} matching [leave]. *)

val create :
  ?trace:Trace.t ->
  ?tables:Smoqe_automata.Tables.t ->
  ?memo_cap:int ->
  Smoqe_automata.Shared.t ->
  t
(** An engine for one pass of a batch ({!Smoqe_automata.Shared.merge};
    a single query is a batch of one).  Its width is the batch's
    [n_queries], and every candidate recorded at an accept state goes to
    the private Cans of the query the merge's [owners] table names there.

    Without [tables] the engine steps the NFA generically (string tests,
    per-item list scans).  With [tables] — which must specialize exactly
    the merged automaton (physical equality; [Driver_error] otherwise) —
    the check-free portion of each node's item set is stepped as one
    interned state set through a lazy-DFA memo, and check-guarded states
    re-attach their node-local Conds per node, so qualifier semantics are
    identical on both paths.  [memo_cap] (default 4096, mainly for tests)
    bounds the distinct state sets interned before the lazy DFA is
    flushed and rebuilt. *)

val enter : t -> id:int -> kind:kind -> verdict
(** Pre-visit a node.  [id] must be the node's pre-order rank (ids are only
    used as opaque, ordered instance keys and answer labels).  With tables,
    element tags are interned by name on each call — streaming drivers use
    this; DOM drivers should prefer {!enter_tagged}. *)

val enter_tagged : t -> id:int -> tag:int -> kind:kind -> verdict
(** [enter] with the element tag already interned in the engine's table's
    id space (for tables built by [Tables.of_tree], the tree's own
    [Tree.tag_id]).  [tag] is ignored for text nodes and on the generic
    path. *)

val leave : t -> unit
(** Post-visit the most recently entered node. *)

val exists_live_state : t -> (Smoqe_automata.Nfa.state -> bool) -> bool
(** Does any state with an active run at the current node (selection items
    and active AFA states) satisfy the predicate?  The DOM driver combines
    this with per-state requirement analyses and the TAX index to decide
    whether descending below the current node can still matter. *)

val entered_candidate : t -> bool
(** Did the most recent [enter] record the node as a candidate answer?
    The streaming driver uses this to start capturing the node's subtree
    for serialized output. *)

val may_accept_value_here : t -> bool
(** A value-equality accept is possible at the current node, so its
    immediate text children must be visited whatever the index says. *)

val finish : t -> int list array
(** End of document: resolve Cans and return the answers per query
    (index = owner id), each list of pre-order ids ascending.  Length is
    the batch width — [[| answers |]] for a batch of one.  The driver
    must have closed every node; may only be called once. *)

val stats : t -> Stats.t

val cans_size : t -> int
(** Total candidate entries currently held across all queries' Cans —
    what resource budgets audit. *)

val set_checkpoint : t -> (int -> unit) -> unit
(** Install a callback fired from {!enter} every 32nd node with the
    running node count.  The DOM driver installs {!run_pass}'s [settle]
    here, so budgets tick per node entered without per-node work of the
    driver's own: the engine is counting nodes anyway.  The callback may
    raise (e.g. {!Smoqe_robust.Budget.Exceeded}); {!run_pass} catches
    it. *)

type pass = {
  by_query : int list array;  (** answers per batch query, document order *)
  m_stats : Stats.t;  (** the one pass's counters, joint over the batch *)
  m_cans_size : int;  (** candidates held in Cans at the end of the pass *)
  m_budget_hit : (string * string) option;
      (** [Some (what, limit)] when the pass stopped on a budget: every
          query's answers are empty, [m_stats] holds the partial
          counters *)
}

val run_pass :
  ?trace:Trace.t ->
  ?tables:Smoqe_automata.Tables.t ->
  ?memo_cap:int ->
  ?budget:Smoqe_robust.Budget.t ->
  spec_us:int ->
  Smoqe_automata.Shared.t ->
  (t -> settle:(int -> unit) -> int) ->
  pass
(** One pass of a batch, everything but the traversal: {!create} the
    engine, charge [spec_us] (table specialization) and the batch
    counters ({!Stats.note_shared}) to its stats, run the driver's
    traversal, settle the budget and {!finish}.  The traversal drives the
    engine over the document and returns its tick count (the DOM driver
    ticks per node entered, the StAX driver per event); it passes
    [settle] the running count every 32 ticks, so the budget is charged
    without per-node work.  A {!Smoqe_robust.Budget.Exceeded} from the
    traversal or the final settlement ends the pass with [m_budget_hit]
    set and every query empty (the pass is all-or-nothing). *)

exception Driver_error of string
(** Raised on contract violations ([leave] without [enter], [finish] with
    open nodes, non-root first enter). *)
