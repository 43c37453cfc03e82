(** HyPE over a start/text/end sequence — SMOQE's StAX mode.

    One sequential scan of the document's bytes, never materializing a
    tree or an event list: the driver reads a parser cursor in place,
    assigns pre-order ids on the fly and fast-forwards through subtrees
    whose root matched no run (the engine is not consulted again until
    the corresponding end).  Answers are
    reported as pre-order ids — identical to the ids a DOM parse of the
    same document would assign.

    With [~capture:true] the driver additionally buffers the markup of
    every candidate subtree while scanning (still one pass) and returns the
    serialized fragments of the final answers — the streaming counterpart
    of the output visualizer's text mode.  Memory grows with the size of
    the captured candidates only. *)

type result = {
  answers : int list;
  captured : (int * string) list;
      (** answer node id -> serialized fragment; [[]] unless capturing *)
  stats : Stats.t;
  cans_size : int;
  n_nodes : int;  (** total nodes scanned (elements + text) *)
  budget_hit : (string * string) option;
      (** [Some (what, limit)] when the scan stopped on a budget:
          [answers] is empty, [stats] holds the partial counters *)
}

type many_result = {
  by_query : int list array;  (** answers per batch query, document order *)
  by_query_captured : (int * string) list array;
      (** per-query serialized fragments; all [[]] unless capturing *)
  m_stats : Stats.t;
  m_cans_size : int;
  m_n_nodes : int;
  m_budget_hit : (string * string) option;
}

val run_slots :
  ?capture:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Trace.t ->
  ?use_tables:bool ->
  ?memo_cap:int ->
  Smoqe_automata.Shared.t ->
  Smoqe_xml.Pull.t ->
  many_result
(** The one streaming driver: one scan answering every query of a batch
    ({!Smoqe_automata.Shared.merge}; a single query is a batch of one).
    Candidates demultiplex through the merge's owner table
    ({!Engine.run_pass}), and every query reads its fragments from one
    per-node capture store.  A tripped budget empties every slot's
    answers.  {!run} is its single-query form. *)

val run :
  ?capture:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Trace.t ->
  ?use_tables:bool ->
  ?memo_cap:int ->
  Smoqe_automata.Mfa.t ->
  Smoqe_xml.Pull.t ->
  result
(** [run_slots] on the batch of one [Shared.merge [| mfa |]], whose
    automaton is [mfa] itself.

    Every event scanned is one budget tick; the ["hype.step"] failpoint
    fires per event (and ["pull.read"] inside the parser itself).

    [use_tables] (default [true]) runs the table-driven engine over a
    {!Smoqe_automata.Tables.of_nfa} table: the automaton's element names
    have their own columns, every other stream tag takes the wildcard
    column.  [false] is the generic reference the table path is tested
    against.  [memo_cap] is forwarded to {!Engine.create}. *)

val eval_string :
  ?capture:bool -> ?trace:Trace.t -> Smoqe_rxpath.Ast.path -> string -> result
(** Parse-compile-and-run convenience over an XML string. *)
