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
  ?owners:int array ->
  ?n_queries:int ->
  Smoqe_automata.Mfa.t ->
  t
(** Without [tables] the engine steps the NFA generically (string tests,
    per-item list scans).  With [tables] — which must specialize exactly
    this MFA's automaton (physical equality; [Driver_error] otherwise) —
    the check-free portion of each node's item set is stepped as one
    interned state set through a lazy-DFA memo, and check-guarded states
    re-attach their node-local Conds per node, so qualifier semantics are
    identical on both paths.  [memo_cap] (default 4096, mainly for tests)
    bounds the distinct state sets interned before the lazy DFA is
    flushed and rebuilt.

    [owners] turns the engine into a {e batch} evaluator for a
    batch merge ({!Smoqe_automata.Shared}): it maps each accept state to
    the one query that selects there, [-1] elsewhere (the merge's [owners]
    table, sized exactly to the automaton; [Driver_error] otherwise), and
    every candidate recorded at that state goes to that owner's private
    Cans.  [n_queries] fixes the batch width (deduced from [owners] when
    omitted).  Without [owners] the engine is the plain single-query
    evaluator: one implicit owner, query 0. *)

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
    the batch width — [[| answers |]] on a single-query engine.  The
    driver must have closed every node; may only be called once. *)

val stats : t -> Stats.t

val n_queries : t -> int
(** Batch width (1 for a plain engine). *)

val cans_size : t -> int
(** Total candidate entries currently held across all queries' Cans —
    what resource budgets audit. *)

val set_checkpoint : t -> (int -> unit) -> unit
(** Install a callback fired from {!enter} every 32nd node with the
    running node count.  Drivers use it to settle resource budgets
    without adding per-node work of their own: the engine is counting
    nodes anyway, so the unbudgeted path pays only a mask-and-branch.
    The callback may raise (e.g. {!Smoqe_robust.Budget.Exceeded}); the
    driver is expected to catch it. *)

exception Driver_error of string
(** Raised on contract violations ([leave] without [enter], [finish] with
    open nodes, non-root first enter). *)
