(** Merge of many compiled MFAs into one batch automaton.

    SMOQE's serving story is one MFA pass per query; a pub/sub deployment
    with N subscribers would pay N document traversals.  [merge] builds a
    {e single} MFA whose runs carry all N queries at once: the disjoint
    union of the members under one fresh root, quotiented up to
    bisimulation ({!Optimize.minimize}).  A per-state {e owner} records
    which query selects at each accept state, so the engine can
    demultiplex candidate answers back to their queries.

    A batch of one is the plan shape of a single query: its member as
    given, with no root and every [Select] state owned by query 0.  There
    is no other member to share with, and a compiled plan is already
    quotiented ({!Optimize.optimize}), so a single query runs exactly the
    automaton it compiled to.

    Soundness: the union runs every member's automaton side by side, so
    each member accepts exactly where it did alone.  The owner is part of
    the [Select] label of the quotient, so a class never mixes the accept
    states of two queries and every state keeps at most one owner.
    Equivalent atoms and qualifiers of different members become one id: a
    qualifier's truth value at a node depends only on its formula over
    equivalent atoms, never on the query that checks it, so one settlement
    per node serves every member.  States of different members with the
    same future become one class too.  Shared path {e prefixes} do not
    (their futures differ), and need not: the lazy DFA interns each set of
    co-active states as one memo row, so the prefix copies of N members
    cost one table lookup per node, as one fused prefix would. *)

type t = private {
  mfa : Mfa.t;
      (** the combined automaton: for two or more members [start] is a
          fresh root with an epsilon edge to every member's start state;
          for one member it is that member, physically *)
  n_queries : int;
  owners : int array;
      (** merged state -> the query that selects there, or [-1] at the
          states carrying no [Select] accept *)
  merged_states : int;  (** states in [mfa] *)
  member_states : int;  (** total states across the input automata *)
}

val merge : Mfa.t array -> t
(** Merge a non-empty batch.  Order is significant only for owner
    numbering: query [i] of the input array is owner [i] in [owners].
    @raise Invalid_argument on an empty batch. *)

val saved_states : t -> int
(** [member_states - merged_states]: the collapse the quotient achieved,
    less the root of a batch of two or more ([0] for a batch of one). *)
