module Tree = Smoqe_xml.Tree

(* One bitset of tag ids per node, flattened into a single int array:
   row [n] occupies words [n*w .. n*w+w-1]. Bit [i] of the row is set when
   tag id [i] occurs among the strict descendants of [n]. *)
type t = {
  words_per_row : int;
  bits : int array;
  n_nodes : int;
  n_tags : int;
}

let bits_per_word = Sys.int_size

(* Fold [node]'s children into its row: each child's own row (its strict
   descendants) and the child's tag bit.  Children must be filled first.
   The children are walked over subtree ends, with no closure per node. *)
let fill_row bits w tree node =
  let stop = Tree.subtree_end tree node in
  let c = ref (node + 1) in
  while !c < stop do
    let c0 = !c in
    for k = 0 to w - 1 do
      bits.((node * w) + k) <- bits.((node * w) + k) lor bits.((c0 * w) + k)
    done;
    let tag = Tree.tag_id tree c0 in
    let word = tag / bits_per_word and bit = tag mod bits_per_word in
    bits.((node * w) + word) <- bits.((node * w) + word) lor (1 lsl bit);
    c := Tree.subtree_end tree c0
  done

let build tree =
  let n = Tree.n_nodes tree in
  let n_tags = Tree.n_tags tree in
  let w = (n_tags + bits_per_word - 1) / bits_per_word in
  let w = max w 1 in
  let bits = Array.make (n * w) 0 in
  (* Bottom-up: process nodes in reverse pre-order, so every node is seen
     after all of its descendants. *)
  for node = n - 1 downto 0 do
    fill_row bits w tree node
  done;
  { words_per_row = w; bits; n_nodes = n; n_tags }

(* Incremental maintenance after a functional subtree splice
   (Tree.delete_subtree / replace_subtree / insert_subtree, which shift
   ids at or after the edited range by the size delta and keep those
   below it): node rows outside the edited range still describe exactly
   the same descendant sets, so they are blitted; only the new middle and
   the ancestor chain of the edit are refilled, with [build]'s
   [fill_row].  [lo, old_hi) is the replaced range in pre-update ids,
   [par] the parent of the edit (new id = old id, it is below [lo]);
   [par < 0] means the root itself was replaced, which degenerates to a
   full rebuild.  Tag ids are stable across splices (new tags are
   appended), so old rows stay valid even when the row width grows. *)
let splice t new_tree ~lo ~old_hi ~par =
  if par < 0 then build new_tree
  else begin
    let n_old = t.n_nodes in
    let n_new = Tree.n_nodes new_tree in
    let shift = n_new - n_old in
    let new_hi = old_hi + shift in
    let n_tags = Tree.n_tags new_tree in
    let w' = max 1 ((n_tags + bits_per_word - 1) / bits_per_word) in
    let w = t.words_per_row in
    let bits = Array.make (n_new * w') 0 in
    let copy_rows src_row dst_row count =
      if w = w' then
        Array.blit t.bits (src_row * w) bits (dst_row * w) (count * w)
      else
        for r = 0 to count - 1 do
          Array.blit t.bits ((src_row + r) * w) bits ((dst_row + r) * w') w
        done
    in
    copy_rows 0 0 lo;
    copy_rows old_hi new_hi (n_old - old_hi);
    (* The new middle, bottom-up (children of a middle node are middle). *)
    for node = new_hi - 1 downto lo do
      fill_row bits w' new_tree node
    done;
    (* The ancestor chain of the edit, deepest first: each ancestor's
       other children kept their rows, the chain child below was just
       recomputed. *)
    let a = ref par in
    while !a >= 0 do
      Array.fill bits (!a * w') w' 0;
      fill_row bits w' new_tree !a;
      a := (match Tree.parent new_tree !a with Some p -> p | None -> -1)
    done;
    { words_per_row = w'; bits; n_nodes = n_new; n_tags }
  end

let mem t node tag =
  if tag < 0 || tag >= t.n_tags then false
  else begin
    let word = tag / bits_per_word and bit = tag mod bits_per_word in
    t.bits.((node * t.words_per_row) + word) land (1 lsl bit) <> 0
  end

let mem_name t tree node name =
  match Tree.id_of_tag tree name with
  | None -> false
  | Some id -> mem t node id

let has_text t node = mem t node Tree.text_tag

let n_nodes t = t.n_nodes
let n_tags t = t.n_tags

let descendant_tags t tree node =
  let out = ref [] in
  for tag = t.n_tags - 1 downto 0 do
    if mem t node tag then out := Tree.tag_name tree tag :: !out
  done;
  List.sort String.compare !out

let memory_words t = Array.length t.bits

let equal a b =
  a.n_nodes = b.n_nodes && a.n_tags = b.n_tags
  && a.words_per_row = b.words_per_row
  && a.bits = b.bits

let row_bits t node =
  let out = ref [] in
  for tag = t.n_tags - 1 downto 0 do
    if mem t node tag then out := tag :: !out
  done;
  !out

let of_rows ~n_tags rows =
  let n = Array.length rows in
  let w = max 1 ((n_tags + bits_per_word - 1) / bits_per_word) in
  let bits = Array.make (n * w) 0 in
  Array.iteri
    (fun node tags ->
      List.iter
        (fun tag ->
          if tag < 0 || tag >= n_tags then invalid_arg "Tax.of_rows";
          let word = tag / bits_per_word and bit = tag mod bits_per_word in
          bits.((node * w) + word) <- bits.((node * w) + word) lor (1 lsl bit))
        tags)
    rows;
  { words_per_row = w; bits; n_nodes = n; n_tags }
