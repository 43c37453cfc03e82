(** Manually specified views — SMOQE's first view-definition mode.

    Besides deriving views from access-control policies, the demo lets a
    user define an XML view directly, "by annotating a view schema" with
    Regular XPath queries (paper §2, Fig. 2): a view DTD plus, for each of
    its edges, an extraction query over the document.  This module builds
    a {!Derive.view} from such a specification, after checking it is
    coherent (every view edge annotated, extraction queries only using
    document element types, extraction targets label-consistent with the
    view type they populate).

    Concrete syntax, one annotation per line (comments start with [#]):
    {v
    sigma(patient, treatment) = visit/treatment[medication]
    sigma(parent, patient) = patient
    v} *)

val of_annotations :
  doc_dtd:Smoqe_xml.Dtd.t ->
  view_dtd:Smoqe_xml.Dtd.t ->
  ((string * string) * Smoqe_rxpath.Ast.path) list ->
  (Derive.view, string) result
(** Build a view from explicit per-edge extraction queries.  Checks:
    the two DTDs share their root type; every edge of the view DTD is
    annotated exactly once and no non-edge is annotated; every tag used in
    an extraction query is declared in the document DTD; every extraction
    path ends in steps labeled with the view edge's child type (so the
    populated nodes really are of that type). *)

val of_string :
  doc_dtd:Smoqe_xml.Dtd.t ->
  view_dtd:Smoqe_xml.Dtd.t ->
  string ->
  (Derive.view, string) result
(** Parse the concrete [sigma(parent, child) = path] syntax. *)
