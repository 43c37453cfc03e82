(* Node-by-node comparison of two trees, shared by the suites.

   [Tree.equal] compares tags, subtree ends, attributes and texts, so a
   wrong parent, depth or value from one way of building a tree (the
   parser, [of_source], an update's splice) would still pass it.  This compares
   every observable field of every node — the child and sibling links
   read off the subtree ends included — and fails on the first mismatch
   with the node and the field. *)

module Tree = Smoqe_xml.Tree

(* [~tag_ids:false] skips the interned ids, for trees whose interning
   legitimately differs (a splice keeps its input's ids). *)
let same_nodes ?(tag_ids = true) label expected actual =
  let n_nodes = Tree.n_nodes expected in
  if Tree.n_nodes actual <> n_nodes then
    Alcotest.failf "%s: %d nodes, expected %d" label (Tree.n_nodes actual)
      n_nodes;
  let field what pp get n =
    let e = get expected n and a = get actual n in
    if e <> a then
      Alcotest.failf "%s: node %d %s: expected %a, got %a" label n what pp e
        pp a
  in
  let link = Fmt.(option ~none:(any "none") int) in
  for n = 0 to n_nodes - 1 do
    field "parent" link Tree.parent n;
    field "first_child" link Tree.first_child n;
    field "next_sibling" link Tree.next_sibling n;
    field "subtree_end" Fmt.int Tree.subtree_end n;
    field "depth" Fmt.int Tree.depth n;
    if tag_ids then field "tag id" Fmt.int Tree.tag_id n;
    field "name" Fmt.string Tree.name n;
    field "value" Fmt.(quote string) Tree.value n;
    field "attributes"
      Fmt.(Dump.list (Dump.pair string string))
      Tree.attributes n
  done

(* A tree against a from-scratch build of its own content: every link
   re-derived from the nested description.  This is what catches a wrong
   subtree end or sibling link in a spliced tree. *)
let check_physical label t =
  same_nodes ~tag_ids:false label (Tree.of_source (Tree.to_source t Tree.root)) t
