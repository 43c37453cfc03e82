(** MFA optimization — the query-optimization techniques the demo turns on
    and off to show their impact (paper §3: "how SMOQE optimizes and
    evaluates Regular XPath queries").

    Four answer-preserving transformations, applied together by
    {!optimize}:

    - {b epsilon elimination}: consuming transitions, accept marks and
      residual epsilon edges are pulled back across check-free epsilon
      chains, so runs spend no time walking Thompson glue (check-guarded
      states cannot be crossed — their qualifier must be consulted at the
      node — and keep their incoming epsilon edges);
    - {b dead-transition pruning}: transitions into states from which no
      acceptance is reachable are dropped;
    - {b unreachable-state removal}: states not reachable from the
      selection start or from the atoms of a checked qualifier are
      removed, and the automaton is renumbered;
    - {b bisimulation quotient} ({!minimize}): equivalent states, atoms
      and qualifiers are merged, so a qualifier the view rewrite copied
      to several places is settled once per node.

    Especially effective on rewritten view queries, whose product
    construction leaves long epsilon chains, unreachable type-layer
    copies and duplicated view qualifiers.  Equivalence with the unoptimized automaton is property-tested;
    experiment E8 measures the size and evaluation-time impact. *)

val optimize : Mfa.t -> Mfa.t

val minimize : ?owners:int array -> Mfa.t -> Mfa.t * int array
(** A bisimulation quotient, by partition refinement from the accept
    labels until the partition is stable.  Two states are equivalent when
    they carry the same [Select] mark (with the same owner, when [owners]
    is given: the owner table of a merged batch), the same atom-accept value
    constraints and the same checks up to equivalent qualifiers, and
    reach the same classes by each node test and by epsilon (an epsilon
    edge into the state's own class is ignored).  An atom is identified by the class of its start state
    and its value, a qualifier by its formula over atoms.  Every run
    accepts at the same nodes and every qualifier keeps its truth value,
    so answers are unchanged.

    The result keeps one state per class reachable from the start or from
    the atoms of a checked qualifier, one atom per (start, value), and one
    qualifier per formula that some check references.  The array maps
    each input state to its state in the result, or [-1] when its class
    was dropped. *)

type report = {
  states_before : int;
  states_after : int;
  transitions_before : int;
  transitions_after : int;
  quals_before : int;
  quals_after : int;
  atoms_before : int;
  atoms_after : int;
}

val optimize_with_report : Mfa.t -> Mfa.t * report

val pp_report : Format.formatter -> report -> unit
