module Tree = Smoqe_xml.Tree
module Node_set = Set.Make (Int)

type env = {
  tree : Tree.t;
  (* Qualifier values are memoized per (qualifier, node); qualifiers are
     compared structurally, which is cheap at the sizes the oracle sees. *)
  memo : (Ast.qual * int, bool) Hashtbl.t;
}

(* A step moves to the children [admit] accepts; qualifier paths are
   evaluated with [everywhere]. *)
let everywhere _ = true

let step env admit from keep =
  Node_set.fold
    (fun n acc ->
      Tree.fold_children env.tree n ~init:acc ~f:(fun acc c ->
          if keep c && admit c then Node_set.add c acc else acc))
    from Node_set.empty

let rec eval_path env admit p from =
  match p with
  | Ast.Self -> from
  | Ast.Tag s ->
    let t = env.tree in
    (match Tree.id_of_tag t s with
    | None -> Node_set.empty
    | Some id -> step env admit from (fun c -> Tree.tag_id t c = id))
  | Ast.Wildcard -> step env admit from (fun c -> Tree.is_element env.tree c)
  | Ast.Text -> step env admit from (fun c -> Tree.is_text env.tree c)
  | Ast.Seq (a, b) -> eval_path env admit b (eval_path env admit a from)
  | Ast.Union (a, b) ->
    Node_set.union (eval_path env admit a from) (eval_path env admit b from)
  | Ast.Star p ->
    let rec fix acc frontier =
      if Node_set.is_empty frontier then acc
      else begin
        let next = Node_set.diff (eval_path env admit p frontier) acc in
        fix (Node_set.union acc next) next
      end
    in
    fix from from
  | Ast.Filter (p, q) ->
    Node_set.filter (holds_qual env q) (eval_path env admit p from)

and holds_qual env q n =
  match Hashtbl.find_opt env.memo (q, n) with
  | Some v -> v
  | None ->
    let v =
      match q with
      | Ast.True -> true
      | Ast.Exists p ->
        not
          (Node_set.is_empty
             (eval_path env everywhere p (Node_set.singleton n)))
      | Ast.Value_eq (p, c) ->
        Node_set.exists
          (fun m -> Tree.value_equal env.tree m c)
          (eval_path env everywhere p (Node_set.singleton n))
      | Ast.Not q -> not (holds_qual env q n)
      | Ast.And (a, b) -> holds_qual env a n && holds_qual env b n
      | Ast.Or (a, b) -> holds_qual env a n || holds_qual env b n
    in
    Hashtbl.replace env.memo (q, n) v;
    v

let make_env tree = { tree; memo = Hashtbl.create 256 }

let eval ?(admit = everywhere) tree =
  let env = make_env tree in
  fun p ~from -> eval_path env admit p from
let holds tree q n = holds_qual (make_env tree) q n

let answers tree p =
  eval_path (make_env tree) everywhere p (Node_set.singleton Tree.root)

let answer_list tree p = Node_set.elements (answers tree p)
