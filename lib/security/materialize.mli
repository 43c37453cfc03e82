(** View materialization — the testing oracle for virtual views.

    SMOQE never materializes views in production (that is the system's
    point): queries are rewritten, and update legality reads the
    {!Exposure} bitmap.  This module exists so that tests and
    demonstrations can check the rewriting contract [Q'(T) = Q(V(T))] and
    inspect what a view exposes.  It builds the view from the same σ-walk
    as {!Exposure} ({!Exposure.walk}); each view node carries provenance
    back to the document node it copies.

    Children of a view node are emitted in document order of their source
    nodes (text children included when the view DTD allows text), which
    matches the inlined view content models whenever conditionally exposed
    types sit under starred or optional contexts — the situation of all the
    paper's examples. *)

type materialized = {
  tree : Smoqe_xml.Tree.t;  (** the view, as a document *)
  provenance : int array;
      (** view node id (pre-order) -> document node id it was copied from *)
}

val materialize : Derive.view -> Smoqe_xml.Tree.t -> materialized
(** Raises [Invalid_argument] when the document's root type is not the
    DTD's root type. *)

val doc_answers :
  Derive.view ->
  Smoqe_xml.Tree.t ->
  Smoqe_rxpath.Ast.path ->
  int list
(** Evaluate a view query against the materialized view and map the
    answers back to document nodes (sorted, deduplicated) — the reference
    the rewriter is tested against. *)
