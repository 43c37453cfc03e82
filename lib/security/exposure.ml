module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Ast = Smoqe_rxpath.Ast
module Semantics = Smoqe_rxpath.Semantics

let walk ?admit view doc ~text ~elem =
  let view_dtd = Derive.view_dtd view in
  if Tree.name doc Tree.root <> Dtd.root view_dtd then
    invalid_arg "Exposure: document root does not match the DTD root";
  let eval = Semantics.eval ?admit doc in
  let admitted = Option.value admit ~default:(fun _ -> true) in
  let rec visit doc_node type_name =
    elem doc_node type_name (fun () ->
        let text_kids =
          if Dtd.allows_text view_dtd type_name then
            Tree.fold_children doc doc_node ~init:[] ~f:(fun acc c ->
                if Tree.is_text doc c && admitted c then (c, None) :: acc
                else acc)
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

(* The exposed nodes of the id range [lo, lo + length bits). *)
type t = { lo : int; bits : Bytes.t }

let marks ?admit view doc ~lo ~hi =
  let bits = Bytes.make (hi - lo) '\000' in
  let mark n = if n >= lo && n < hi then Bytes.set bits (n - lo) '\001' in
  walk ?admit view doc ~text:mark ~elem:(fun n _ kids ->
      mark n;
      ignore (kids ()));
  { lo; bits }

let compute view doc = marks view doc ~lo:0 ~hi:(Tree.n_nodes doc)

(* Every view ancestor of a node is one of its document ancestors (σ
   paths only move down), and a document ancestor of a node of the
   range lies in the range or is an ancestor of [lo].  So the walk only
   ever needs that chain and the range. *)
let region view doc ~lo ~hi =
  if lo < 0 || hi < lo || hi > Tree.n_nodes doc then
    invalid_arg "Exposure.region: range out of the document";
  let admit c = if c < lo then Tree.subtree_end doc c > lo else c < hi in
  marks ~admit view doc ~lo ~hi

let mem t n =
  n >= t.lo && n - t.lo < Bytes.length t.bits
  && Bytes.get t.bits (n - t.lo) = '\001'

(* Which element tags a path's targets can carry, given its sources'
   ([Any]: every tag). *)
type tags = Any | Tags of string list

let join a b =
  match (a, b) with
  | Any, _ | _, Any -> Any
  | Tags x, Tags y -> Tags (x @ List.filter (fun s -> not (List.mem s x)) y)

let rec ends from = function
  | Ast.Self -> from
  | Ast.Tag s -> Tags [ s ]
  | Ast.Wildcard -> Any
  | Ast.Text -> Tags []
  | Ast.Seq (a, b) -> ends (ends from a) b
  | Ast.Union (a, b) -> join (ends from a) (ends from b)
  | Ast.Star p -> closure from p
  | Ast.Filter (p, _) -> ends from p

and closure from p =
  let next = join from (ends from p) in
  if next = from then from else closure next p

let anchored view =
  let rec collect from p acc =
    match p with
    | Ast.Self | Ast.Tag _ | Ast.Wildcard | Ast.Text -> acc
    | Ast.Seq (a, b) -> collect (ends from a) b (collect from a acc)
    | Ast.Union (a, b) -> collect from b (collect from a acc)
    | Ast.Star p -> collect (closure from p) p acc
    | Ast.Filter (p, q) ->
      let on = match ends from p with Any -> None | Tags l -> Some l in
      (q, on) :: collect from p acc
  in
  List.fold_left
    (fun acc parent ->
      List.fold_left
        (fun acc child ->
          match Derive.sigma view ~parent ~child with
          | None -> acc
          | Some p -> collect Any p acc)
        acc
        (Derive.exposed_children view parent))
    [] (Derive.visible_types view)
  |> List.rev
