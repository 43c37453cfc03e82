module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Semantics = Smoqe_rxpath.Semantics

let walk view doc ~text ~elem =
  let view_dtd = Derive.view_dtd view in
  if Tree.name doc Tree.root <> Dtd.root view_dtd then
    invalid_arg "Exposure: document root does not match the DTD root";
  let eval = Semantics.eval doc in
  let rec visit doc_node type_name =
    elem doc_node type_name (fun () ->
        let text_kids =
          if Dtd.allows_text view_dtd type_name then
            Tree.fold_children doc doc_node ~init:[] ~f:(fun acc c ->
                if Tree.is_text doc c then (c, None) :: acc else acc)
          else []
        in
        let elem_kids =
          List.concat_map
            (fun child_type ->
              match Derive.sigma view ~parent:type_name ~child:child_type with
              | None -> []
              | Some path ->
                eval path ~from:(Semantics.Node_set.singleton doc_node)
                |> Semantics.Node_set.elements
                |> List.map (fun m -> (m, Some child_type)))
            (Derive.exposed_children view type_name)
        in
        List.sort (fun (a, _) (b, _) -> compare a b) (text_kids @ elem_kids)
        |> List.map (fun (m, kind) ->
               match kind with
               | None -> text m
               | Some child_type -> visit m child_type))
  in
  visit Tree.root (Dtd.root view_dtd)

type t = { view : Derive.view; doc : Tree.t; bits : Bytes.t }

let compute view doc =
  let bits = Bytes.make (Tree.n_nodes doc) '\000' in
  let mark n = Bytes.set bits n '\001' in
  walk view doc ~text:mark ~elem:(fun n _ kids ->
      mark n;
      ignore (kids ()));
  { view; doc; bits }

let is_for t ~view doc = t.view == view && t.doc == doc

let mem t n = n >= 0 && n < Bytes.length t.bits && Bytes.get t.bits n = '\001'
