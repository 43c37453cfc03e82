module Tree = Smoqe_xml.Tree
module Semantics = Smoqe_rxpath.Semantics

type materialized = {
  tree : Tree.t;
  provenance : int array;
}

let materialize view doc =
  (* Provenance is appended in visit order, which is view pre-order. *)
  let rev_prov = ref [] in
  let n_prov = ref 0 in
  let push doc_node =
    rev_prov := doc_node :: !rev_prov;
    incr n_prov
  in
  let source =
    Exposure.walk view doc
      ~text:(fun m ->
        push m;
        Tree.T (Tree.text_content doc m))
      ~elem:(fun n type_name kids ->
        push n;
        Tree.E (type_name, [], kids ()))
  in
  let provenance = Array.make !n_prov 0 in
  List.iteri
    (fun i doc_node -> provenance.(!n_prov - 1 - i) <- doc_node)
    !rev_prov;
  { tree = Tree.of_source source; provenance }

let doc_answers view doc path =
  let m = materialize view doc in
  Semantics.answer_list m.tree path
  |> List.map (fun view_node -> m.provenance.(view_node))
  |> List.sort_uniq compare
