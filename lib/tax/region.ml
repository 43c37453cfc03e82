module Tree = Smoqe_xml.Tree

type t = {
  tree : Tree.t;
  post : int array;
  (* inverted lists per tag id; index 0 (the text tag) holds text nodes *)
  by_tag : int array array;
}

let build tree =
  let n = Tree.n_nodes tree in
  (* A node's post-order rank counts the nodes that close before it:
     those before it in pre-order but its [depth] ancestors, and its own
     descendants — [subtree_end - 1 - depth], with no walk. *)
  let post =
    Array.init n (fun node ->
        Tree.subtree_end tree node - 1 - Tree.depth tree node)
  in
  let counts = Array.make (Tree.n_tags tree) 0 in
  for node = 0 to n - 1 do
    counts.(Tree.tag_id tree node) <- counts.(Tree.tag_id tree node) + 1
  done;
  let by_tag = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make (Tree.n_tags tree) 0 in
  for node = 0 to n - 1 do
    let tag = Tree.tag_id tree node in
    by_tag.(tag).(fill.(tag)) <- node;
    fill.(tag) <- fill.(tag) + 1
  done;
  { tree; post; by_tag }

let post t node = t.post.(node)
let level t node = Tree.depth t.tree node

let is_ancestor t ~anc ~desc =
  anc < desc && t.post.(desc) < t.post.(anc)

let nodes_with_tag t tag =
  match Tree.id_of_tag t.tree tag with
  | None -> [||]
  | Some id -> t.by_tag.(id)

let text_nodes t = t.by_tag.(Tree.text_tag)

let memory_words t =
  Array.length t.post
  + Array.fold_left (fun acc a -> acc + Array.length a) 0 t.by_tag
