(** Prefix-sharing merge of many compiled MFAs into one batch automaton.

    SMOQE's serving story is one MFA pass per query; a pub/sub deployment
    with N subscribers would pay N document traversals.  [merge] collapses
    a batch of compiled queries YFilter-style into a {e single} MFA whose
    runs carry all N queries at once: states whose incoming languages are
    provably identical are fused (policy-rewritten view queries share long
    path prefixes by construction, so the collapse is substantial), and a
    per-state {e owner set} records which queries select at each fused
    accept state so the engine can demultiplex candidate answers back to
    their queries.

    Soundness of the fusion: a member state is eligible for unification
    only if it is check-free and carries no atom accept, because fusion
    unions outgoing behavior, not labels.  Two eligible states are fused
    only when their {e full} incoming-edge sets — external sources already
    mapped into the merged graph, plus self-loop labels — are identical,
    which makes their incoming languages identical (from the root and from
    every atom entry alike); fusing then merely unions outgoing behavior
    the combined NFA would explore nondeterministically anyway.

    The fused automaton is then quotiented up to bisimulation
    ({!Optimize.minimize}), with each state's owner set as part of its
    [Select] label.  Equivalent atoms and qualifiers of different members
    become one id: a qualifier's truth value at a node depends only on
    its formula over equivalent atoms, never on the query that checks it,
    so one settlement per node serves every member. *)

type t = private {
  mfa : Mfa.t;
      (** the combined automaton; [start] is a fresh root with an epsilon
          edge to every member query's start state *)
  n_queries : int;
  owners : int array array;
      (** merged state -> sorted owner query indices; non-empty exactly at
          the states carrying a [Select] accept *)
  merged_states : int;  (** states in the combined, quotiented automaton *)
  member_states : int;  (** total states across the input automata *)
  prefix_hits : int;  (** member states fused into an existing state *)
  accept_width : int;  (** widest owner set over all accept states *)
}

val merge : Mfa.t array -> t
(** Merge a non-empty batch.  Order is significant only for owner
    numbering: query [i] of the input array is owner [i] in [owners].
    @raise Invalid_argument on an empty batch. *)

val saved_states : t -> int
(** [member_states - merged_states]: the collapse the prefix fusion and
    the quotient achieved together (the root state makes this [-1] for a
    batch of one minimal query). *)
