(** Reference set semantics for Regular XPath.

    Direct, obviously-correct implementation of the relational semantics:
    paths map node sets to node sets, closure by fixpoint, qualifiers by
    memoized recursive evaluation.  This module is the oracle against which
    the MFA/HyPE engine, the StAX engine and the baselines are tested; it is
    also the [Naive] baseline of experiment E1. *)

module Node_set : Set.S with type elt = int

val eval :
  ?admit:(Smoqe_xml.Tree.node -> bool) ->
  Smoqe_xml.Tree.t -> Ast.path -> from:Node_set.t -> Node_set.t
(** Image of [from] under the path relation.  Applied to a tree alone,
    it returns an evaluator whose calls share one qualifier memo.  With
    [admit], the path's own steps move only to children [admit] accepts
    (the image restricted to paths through admitted nodes); the paths
    inside its qualifiers still range over the whole tree. *)

val holds : Smoqe_xml.Tree.t -> Ast.qual -> Smoqe_xml.Tree.node -> bool

val answers : Smoqe_xml.Tree.t -> Ast.path -> Node_set.t
(** [eval] from the root — the answer of the query. *)

val answer_list : Smoqe_xml.Tree.t -> Ast.path -> int list
(** Answers in document order. *)
