(** HyPE over an in-memory document — SMOQE's DOM mode.

    A single top-down depth-first traversal of the tree drives the
    {!Engine}; with a TAX index the driver additionally skips whole
    subtrees the automaton provably cannot use (experiment E3 toggles
    exactly this). *)

type result = {
  answers : int list;  (** answer nodes, in document order *)
  stats : Stats.t;
  cans_size : int;  (** candidates held in Cans at the end of the pass *)
  budget_hit : (string * string) option;
      (** [Some (what, limit)] when the traversal stopped on a budget:
          [answers] is empty, [stats] holds the partial counters *)
}

val run :
  ?tax:Smoqe_tax.Tax.t ->
  ?prune_threshold:int ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Trace.t ->
  ?tables:Smoqe_automata.Tables.t ->
  ?use_tables:bool ->
  ?memo_cap:int ->
  Smoqe_automata.Mfa.t ->
  Smoqe_xml.Tree.t ->
  result
(** [prune_threshold] (default 48): subtrees smaller than this many nodes
    are scanned rather than tested against the index — the test costs more
    than the scan below that size.  With [budget], every node entered is
    one tick; a tripped budget ends the pass with [budget_hit] set rather
    than raising.  The ["hype.step"] failpoint fires here.

    [use_tables] (default [true]) selects the table-driven engine;
    [false] steps the NFA generically and is kept as the reference the
    table path is tested against.  [tables] supplies a pre-built frozen
    specialization; it is used only when built for exactly this tree
    ([Tables.built_for]), otherwise the driver respecializes — so callers
    may pass whatever the plan cache holds without checking.  [memo_cap]
    is forwarded to {!Engine.create} (tests exercise lazy-DFA flushes
    with tiny caps). *)

type many_result = {
  by_query : int list array;  (** answers per batch query, document order *)
  m_stats : Stats.t;  (** one shared pass: traversal counters are joint *)
  m_cans_size : int;
  m_budget_hit : (string * string) option;
}

val run_slots :
  ?tax:Smoqe_tax.Tax.t ->
  ?prune_threshold:int ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Trace.t ->
  ?tables:Smoqe_automata.Tables.t ->
  ?use_tables:bool ->
  ?memo_cap:int ->
  ?shared:Smoqe_automata.Shared.t ->
  Smoqe_automata.Mfa.t ->
  Smoqe_xml.Tree.t ->
  many_result
(** The one DOM driver; {!run} and {!run_many} are its two forms.  Without
    [shared] the automaton is one query and [by_query] has one slot.  With
    [shared] — whose merged automaton the [Mfa.t] argument must be —
    candidates demultiplex through the merge's owner table and the batch
    counters are recorded ({!Stats.note_shared}). *)

val run_many :
  ?tax:Smoqe_tax.Tax.t ->
  ?prune_threshold:int ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Trace.t ->
  ?tables:Smoqe_automata.Tables.t ->
  ?use_tables:bool ->
  ?memo_cap:int ->
  Smoqe_automata.Shared.t ->
  Smoqe_xml.Tree.t ->
  many_result
(** One traversal answering every query of a shared-automaton batch
    ({!Smoqe_automata.Shared.merge}): the combined NFA rides the same
    table/lazy-DFA machinery as {!run} — the interned state sets just get
    wider — and candidates demultiplex to per-query answer lists through
    the merge's owner table.  [tables], if supplied, must specialize the
    {e merged} automaton.  A tripped budget empties every query's answers
    (the shared pass is all-or-nothing). *)

val eval :
  ?tax:Smoqe_tax.Tax.t ->
  Smoqe_xml.Tree.t ->
  Smoqe_rxpath.Ast.path ->
  int list
(** Compile-and-run convenience. *)
