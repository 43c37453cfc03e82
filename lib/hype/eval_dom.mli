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
(** [run_many] on the batch of one [Shared.merge [| mfa |]], whose
    automaton is [mfa] itself.

    [prune_threshold] (default 48): subtrees smaller than this many nodes
    are scanned rather than tested against the index — the test costs more
    than the scan below that size.  With [budget], every node entered is
    one tick; a tripped budget ends the pass with [budget_hit] set rather
    than raising.  The ["hype.step"] failpoint fires here.

    [use_tables] (default [true]) selects the table-driven engine;
    [false] steps the NFA generically and is kept as the reference the
    table path is tested against.  [tables] supplies a pre-built
    specialization; it is used only when built for exactly this tree
    ([Tables.built_for]), otherwise the driver respecializes — so callers
    may pass whatever the plan cache holds without checking.  [memo_cap]
    is forwarded to {!Engine.create} (tests exercise lazy-DFA flushes
    with tiny caps). *)

type many_result = Engine.pass = {
  by_query : int list array;  (** answers per batch query, document order *)
  m_stats : Stats.t;  (** one shared pass: traversal counters are joint *)
  m_cans_size : int;
  m_budget_hit : (string * string) option;
}

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
(** The one DOM driver: one traversal answering every query of a batch
    ({!Smoqe_automata.Shared.merge}; a single query is a batch of one).
    The merged automaton rides the table/lazy-DFA machinery, and
    candidates demultiplex to per-query answer lists through the merge's
    owner table ({!Engine.run_pass}).  [tables], if supplied, must
    specialize the {e merged} automaton.  A
    tripped budget empties every query's answers (the pass is
    all-or-nothing).  {!run} is its single-query form. *)

val eval :
  ?tax:Smoqe_tax.Tax.t ->
  Smoqe_xml.Tree.t ->
  Smoqe_rxpath.Ast.path ->
  int list
(** Compile-and-run convenience. *)
