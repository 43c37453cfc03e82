(** The federated-corporation workload: a heterogeneous corpus document,
    its DTD and kind-selective queries, used by bench [e3]/[e9]. *)

val dtd : Smoqe_xml.Dtd.t
(** A heterogeneous "federated corporation": departments with sales,
    audit, HR and inventory sections — shaped so different security
    policies bite on different regions. *)

val generate :
  ?seed:int -> n_departments:int -> section_size:int -> unit -> Smoqe_xml.Tree.t
(** A corpus document of [n_departments] departments, each with one or
    two sections of [section_size] records.  Valid against {!dtd};
    deterministic per [seed] (default 13). *)

val queries : (string * string) list
(** Labeled benchmark queries over the corpus, mixing descendant
    wildcards, qualifiers and child-only paths. *)
