type node = int

let root = 0

type source =
  | E of string * (string * string) list * source list
  | T of string

let text_tag = 0
let text_tag_name = "#text"

(* INVARIANT: a [t] is deeply immutable once construction returns — no
   field, array slot or hashtable binding is ever written afterwards.
   This is what lets one tree be shared by every session and evaluated on
   every domain of the pool executor with no locking at all.  In
   particular comparison values are *precomputed* at construction: an
   earlier version memoized them lazily into a [string option array],
   which is a data race under parallel evaluation (two domains writing
   the slot, a third reading it torn between the check and the write).
   Any future per-node cache must either be filled here, before the tree
   is published, or be published through [Atomic].

   REPRESENTATION (DESIGN.md §15): the tree is packed.  Structure is six
   flat pre-order int arrays; content is never stored as per-node
   strings.  All text bytes live in two shared immutable regions:

   - [arena]: the raw document bytes when the tree was built by the
     streaming parser (zero-copy — the parse buffer itself), or [""] for
     [of_source]-built trees;
   - [appendix]: everything else — reference-decoded segments, content
     of [of_source] material, content spliced in by functional updates,
     and the concatenated values of mixed-content elements.

   A content span is coded in one int: [off >= 0] indexes [arena],
   [off < 0] indexes [appendix] at [lnot off].  [cont_off]/[cont_len]
   hold a text node's content, and an element's comparison value — for
   an element with a single text child the value *aliases* the child's
   span, so only mixed-content elements cost appendix bytes.  Attributes
   are packed the same way: [attr_start] (n+1 entries, cumulative) maps
   a node to its range in [attr_names]/[attr_voff]/[attr_vlen].

   The update operations below ([delete_subtree] &c.) are functional:
   they build a fresh [t] and never write the input.  A spliced tree
   shares the input's [arena] outright and extends its [appendix] by
   appending only — prefix and suffix spans are therefore blitted
   verbatim, never re-encoded.  It may also share
   [tag_names]/[tag_ids] (and therefore [tags_token]) with its parent
   tree when the edit interned no new tag — sharing is safe because of
   the same immutability invariant. *)
type t = {
  tag : int array;
  parent : int array;
  first_child : int array;
  next_sibling : int array;
  subtree_end : int array;
  depth : int array;
  arena : string;
  appendix : string;
  cont_off : int array; (* coded span: text content / element value *)
  cont_len : int array;
  attr_start : int array; (* n+1 entries, cumulative *)
  attr_names : string array;
  attr_voff : int array; (* coded spans *)
  attr_vlen : int array;
  tag_names : string array; (* tag id -> name; slot 0 is #text *)
  tag_ids : (string, int) Hashtbl.t;
  tags_token : int; (* identity of the tag-interning lineage *)
}

let n_nodes t = Array.length t.tag
let n_tags t = Array.length t.tag_names
let tags_token t = t.tags_token

let check t n =
  if n < 0 || n >= n_nodes t then
    invalid_arg (Printf.sprintf "Tree: node id %d out of range" n)

let tag_id t n = check t n; t.tag.(n)
let is_text t n = tag_id t n = text_tag
let is_element t n = not (is_text t n)

let tag_name t id =
  if id < 0 || id >= Array.length t.tag_names then
    invalid_arg (Printf.sprintf "Tree: tag id %d out of range" id)
  else t.tag_names.(id)

let name t n = tag_name t (tag_id t n)
let id_of_tag t s = Hashtbl.find_opt t.tag_ids s

let parent t n =
  check t n;
  if n = root then None else Some t.parent.(n)

let first_child t n =
  check t n;
  let c = t.first_child.(n) in
  if c < 0 then None else Some c

let next_sibling t n =
  check t n;
  let s = t.next_sibling.(n) in
  if s < 0 then None else Some s

let iter_children t n f =
  let rec loop c = if c >= 0 then (f c; loop t.next_sibling.(c)) in
  check t n;
  loop t.first_child.(n)

let fold_children t n ~init ~f =
  let rec loop acc c =
    if c < 0 then acc else loop (f acc c) t.next_sibling.(c)
  in
  check t n;
  loop init t.first_child.(n)

let children t n =
  List.rev (fold_children t n ~init:[] ~f:(fun acc c -> c :: acc))

let subtree_end t n = check t n; t.subtree_end.(n)
let subtree_size t n = subtree_end t n - n
let depth t n = check t n; t.depth.(n)

(* Materialize a coded span. *)
let slice t off len =
  if len = 0 then ""
  else if off >= 0 then String.sub t.arena off len
  else String.sub t.appendix (lnot off) len

let attributes t n =
  check t n;
  let lo = t.attr_start.(n) and hi = t.attr_start.(n + 1) in
  let rec go i acc =
    if i < lo then acc
    else
      go (i - 1)
        ((t.attr_names.(i), slice t t.attr_voff.(i) t.attr_vlen.(i)) :: acc)
  in
  go (hi - 1) []

let attribute t n key =
  check t n;
  let hi = t.attr_start.(n + 1) in
  let rec find i =
    if i >= hi then None
    else if String.equal t.attr_names.(i) key then
      Some (slice t t.attr_voff.(i) t.attr_vlen.(i))
    else find (i + 1)
  in
  find t.attr_start.(n)

let iter_attrs t n f =
  check t n;
  for i = t.attr_start.(n) to t.attr_start.(n + 1) - 1 do
    let off = t.attr_voff.(i) and len = t.attr_vlen.(i) in
    if off >= 0 then f t.attr_names.(i) t.arena off len
    else f t.attr_names.(i) t.appendix (lnot off) len
  done

let text_content t n =
  check t n;
  if t.tag.(n) = text_tag then slice t t.cont_off.(n) t.cont_len.(n) else ""

let value t n =
  check t n;
  slice t t.cont_off.(n) t.cont_len.(n)

let content_slice t n =
  check t n;
  let off = t.cont_off.(n) and len = t.cont_len.(n) in
  if off >= 0 then (t.arena, off, len) else (t.appendix, lnot off, len)

let value_equal t n s =
  check t n;
  let len = t.cont_len.(n) in
  String.length s = len
  &&
  let off = t.cont_off.(n) in
  let backing, off =
    if off >= 0 then (t.arena, off) else (t.appendix, lnot off)
  in
  let i = ref 0 in
  while
    !i < len && String.unsafe_get backing (off + !i) = String.unsafe_get s !i
  do
    incr i
  done;
  !i = len

let descendant_or_self_texts t n =
  let stop = subtree_end t n in
  let buf = Buffer.create 16 in
  for i = n to stop - 1 do
    if t.tag.(i) = text_tag then begin
      let off = t.cont_off.(i) and len = t.cont_len.(i) in
      if off >= 0 then Buffer.add_substring buf t.arena off len
      else Buffer.add_substring buf t.appendix (lnot off) len
    end
  done;
  Buffer.contents buf

let iter_preorder t f =
  for i = 0 to n_nodes t - 1 do
    f i
  done

let fold_preorder t ~init ~f =
  let acc = ref init in
  for i = 0 to n_nodes t - 1 do
    acc := f !acc i
  done;
  !acc

(* Construction: a first pass counts nodes and attributes, a second fills
   the arrays.  Both passes drive explicit worklists, never native
   recursion over document depth: a parsed document may nest arbitrarily
   deep, and the only depth limit in the pipeline is the [max_depth]
   budget — not [Stack_overflow] (DESIGN.md §12). *)

let count_src src =
  let n = ref 0 and na = ref 0 in
  let work = ref [ src ] in
  let continue = ref true in
  while !continue do
    match !work with
    | [] -> continue := false
    | T _ :: rest ->
      incr n;
      work := rest
    | E (_, ats, kids) :: rest ->
      incr n;
      na := !na + List.length ats;
      work := List.rev_append kids rest
  done;
  (!n, !na)

(* Tag-lineage tokens.  Every fresh interning run mints a new one; a
   splice that interned no new tag keeps its input's token.  Equal tokens
   therefore guarantee byte-identical tag tables, which is what lets
   artifacts keyed by tag id (the frozen transition tables of
   [Smoqe_automata.Tables]) survive functional updates. *)
let token_counter = Atomic.make 1
let fresh_token () = Atomic.fetch_and_add token_counter 1

(* A tag interner: a read-only base table (empty or seeded from an
   existing tree, whose ids all stay stable) plus appended new names. *)
type interner = {
  int_base : (string, int) Hashtbl.t; (* never written when seeded *)
  int_extra : (string, int) Hashtbl.t;
  mutable int_extra_rev : string list;
  mutable int_n : int;
}

let fresh_interner () =
  let base = Hashtbl.create 1 in
  Hashtbl.add base text_tag_name text_tag;
  { int_base = base; int_extra = Hashtbl.create 64; int_extra_rev = [];
    int_n = 1 }

let interner_of_seed t0 =
  { int_base = t0.tag_ids; int_extra = Hashtbl.create 4;
    int_extra_rev = []; int_n = Array.length t0.tag_names }

let intern it s =
  match Hashtbl.find_opt it.int_base s with
  | Some id -> id
  | None ->
    (match Hashtbl.find_opt it.int_extra s with
    | Some id -> id
    | None ->
      let id = it.int_n in
      it.int_n <- it.int_n + 1;
      Hashtbl.add it.int_extra s id;
      it.int_extra_rev <- s :: it.int_extra_rev;
      id)

let finalize_interner it ~seed =
  match seed with
  | Some t0 when it.int_extra_rev = [] ->
    (* No new tag: share the seed's table and keep its token. *)
    (t0.tag_names, t0.tag_ids, t0.tags_token)
  | _ ->
    let base =
      match seed with
      | Some t0 -> Array.to_list t0.tag_names
      | None -> [ text_tag_name ]
    in
    let tag_names = Array.of_list (base @ List.rev it.int_extra_rev) in
    let tag_ids = Hashtbl.create (2 * Array.length tag_names) in
    Array.iteri (fun i s -> Hashtbl.add tag_ids s i) tag_names;
    (tag_names, tag_ids, fresh_token ())

(* Arrays of a tree under construction, before they are frozen into a
   [t].  Slots outside the range being filled must already hold their
   final values (or the [Array.make] defaults).  New content bytes
   accumulate in [b_content]; they will land in the final appendix at
   offset [b_cbase] (the length of the appendix inherited from a splice
   input — 0 for a fresh build), so spans into them are coded as
   [lnot (b_cbase + pos)] up front and never re-encoded. *)
type builder = {
  b_tag : int array;
  b_parent : int array;
  b_first_child : int array;
  b_next_sibling : int array;
  b_subtree_end : int array;
  b_depth : int array;
  b_cont_off : int array;
  b_cont_len : int array;
  b_attr_start : int array; (* n + 1 entries *)
  b_attr_names : string array;
  b_attr_voff : int array;
  b_attr_vlen : int array;
  mutable b_attr_n : int;
  b_content : Buffer.t;
  b_cbase : int;
}

let make_builder n na ~cbase =
  {
    b_tag = Array.make n 0;
    b_parent = Array.make n (-1);
    b_first_child = Array.make n (-1);
    b_next_sibling = Array.make n (-1);
    b_subtree_end = Array.make n 0;
    b_depth = Array.make n 0;
    b_cont_off = Array.make n 0;
    b_cont_len = Array.make n 0;
    b_attr_start = Array.make (n + 1) 0;
    b_attr_names = Array.make na "";
    b_attr_voff = Array.make na 0;
    b_attr_vlen = Array.make na 0;
    b_attr_n = 0;
    b_content = Buffer.create 256;
    b_cbase = cbase;
  }

(* Pre-order fill of nodes [start, start + size srcs) from consecutive
   sibling sources under parent [par] (whose own slots are not touched)
   at depth [dep].  Drives an explicit frame stack — a frame is an open
   element: children still to attach, and the last child attached (for
   sibling linking); [subtree_end] of a leaf is known at allocation, an
   element's is set when its frame pops.  Content bytes are appended to
   [b_content] and spans recorded at allocation; attributes are packed
   in the same pre-order, so [b_attr_start] stays cumulative.  Returns
   the id of the last root, -1 when [srcs] is empty. *)
let fill_range b it ~start ~par ~dep srcs =
  let next = ref start in
  let alloc p d s =
    let id = !next in
    incr next;
    b.b_parent.(id) <- p;
    b.b_depth.(id) <- d;
    b.b_attr_start.(id) <- b.b_attr_n;
    (match s with
    | T s ->
      b.b_tag.(id) <- text_tag;
      b.b_cont_off.(id) <- lnot (b.b_cbase + Buffer.length b.b_content);
      b.b_cont_len.(id) <- String.length s;
      Buffer.add_string b.b_content s;
      b.b_subtree_end.(id) <- id + 1
    | E (tg, ats, _) ->
      if tg = "" then invalid_arg "Tree.of_source: empty tag name";
      b.b_tag.(id) <- intern it tg;
      List.iter
        (fun (k, v) ->
          b.b_attr_names.(b.b_attr_n) <- k;
          b.b_attr_voff.(b.b_attr_n) <-
            lnot (b.b_cbase + Buffer.length b.b_content);
          b.b_attr_vlen.(b.b_attr_n) <- String.length v;
          Buffer.add_string b.b_content v;
          b.b_attr_n <- b.b_attr_n + 1)
        ats);
    id
  in
  let module F = struct
    type frame = { id : int; dp : int; mutable prev : int;
                   mutable todo : source list }
  end in
  let open F in
  let last_root = ref (-1) in
  List.iter
    (fun src ->
      let rid = alloc par dep src in
      if !last_root >= 0 then b.b_next_sibling.(!last_root) <- rid;
      last_root := rid;
      let stack =
        ref
          (match src with
          | T _ -> []
          | E (_, _, kids) -> [ { id = rid; dp = dep; prev = -1; todo = kids } ])
      in
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> continue := false
        | frame :: rest ->
          (match frame.todo with
          | [] ->
            b.b_subtree_end.(frame.id) <- !next;
            stack := rest
          | kid :: more ->
            frame.todo <- more;
            let kid_id = alloc frame.id (frame.dp + 1) kid in
            if frame.prev < 0 then b.b_first_child.(frame.id) <- kid_id
            else b.b_next_sibling.(frame.prev) <- kid_id;
            frame.prev <- kid_id;
            (match kid with
            | T _ -> ()
            | E (_, _, kids) ->
              stack :=
                { id = kid_id; dp = frame.dp + 1; prev = -1; todo = kids }
                :: !stack))
      done)
    srcs;
  !last_root

(* Read a coded span while the final appendix is still in pieces: the
   inherited part [app0], then the new content [newc] (at [length app0]),
   then the extras being built. *)
let add_coded buf ~arena ~app0 ~newc off len =
  if len = 0 then ()
  else if off >= 0 then Buffer.add_substring buf arena off len
  else begin
    let r = lnot off in
    let l0 = String.length app0 in
    if r < l0 then Buffer.add_substring buf app0 r len
    else Buffer.add_substring buf newc (r - l0) len
  end

(* Comparison value of an element from its immediate children.  A span,
   not a copy: a single text child's value *is* that child's span, the
   all-elements case is the empty span — only mixed-content elements
   append concatenated bytes to [extras] (which lands in the appendix at
   offset [ebase]). *)
let set_value b ~arena ~app0 ~newc ~extras ~ebase i =
  let first = ref (-1) and count = ref 0 in
  let c = ref b.b_first_child.(i) in
  while !c >= 0 do
    if b.b_tag.(!c) = text_tag then begin
      if !count = 0 then first := !c;
      incr count
    end;
    c := b.b_next_sibling.(!c)
  done;
  if !count = 0 then begin
    b.b_cont_off.(i) <- 0;
    b.b_cont_len.(i) <- 0
  end
  else if !count = 1 then begin
    b.b_cont_off.(i) <- b.b_cont_off.(!first);
    b.b_cont_len.(i) <- b.b_cont_len.(!first)
  end
  else begin
    let start = ebase + Buffer.length extras in
    let c = ref b.b_first_child.(i) in
    while !c >= 0 do
      if b.b_tag.(!c) = text_tag then
        add_coded extras ~arena ~app0 ~newc b.b_cont_off.(!c) b.b_cont_len.(!c);
      c := b.b_next_sibling.(!c)
    done;
    b.b_cont_off.(i) <- lnot start;
    b.b_cont_len.(i) <- ebase + Buffer.length extras - start
  end

(* Comparison values, filled before the tree is published (see the
   invariant on [t]). *)
let fill_values b ~arena ~app0 ~newc ~extras ~ebase ~lo ~hi =
  for i = hi - 1 downto lo do
    if b.b_tag.(i) <> text_tag then
      set_value b ~arena ~app0 ~newc ~extras ~ebase i
  done

let freeze b ~arena ~appendix (tag_names, tag_ids, tags_token) =
  {
    tag = b.b_tag;
    parent = b.b_parent;
    first_child = b.b_first_child;
    next_sibling = b.b_next_sibling;
    subtree_end = b.b_subtree_end;
    depth = b.b_depth;
    arena;
    appendix;
    cont_off = b.b_cont_off;
    cont_len = b.b_cont_len;
    attr_start = b.b_attr_start;
    attr_names = b.b_attr_names;
    attr_voff = b.b_attr_voff;
    attr_vlen = b.b_attr_vlen;
    tag_names;
    tag_ids;
    tags_token;
  }

let build ?seed src =
  let n, na = count_src src in
  let b = make_builder n na ~cbase:0 in
  let it =
    match seed with
    | Some t0 -> interner_of_seed t0
    | None -> fresh_interner ()
  in
  ignore (fill_range b it ~start:0 ~par:(-1) ~dep:0 [ src ]);
  b.b_attr_start.(n) <- b.b_attr_n;
  let newc = Buffer.contents b.b_content in
  let extras = Buffer.create 64 in
  fill_values b ~arena:"" ~app0:"" ~newc ~extras ~ebase:(String.length newc)
    ~lo:0 ~hi:n;
  let appendix =
    if Buffer.length extras = 0 then newc else newc ^ Buffer.contents extras
  in
  freeze b ~arena:"" ~appendix (finalize_interner it ~seed)

let of_source src = build src

(* [splice t ~lo ~old_hi ~par ~prev ~nxt srcs] replaces the node range
   [lo, old_hi) — zero or more whole consecutive sibling subtrees under
   [par] — with the subtrees described by [srcs].  [prev] is the child of
   [par] immediately preceding the range (-1 when the range starts at
   [par]'s first child), [nxt] the sibling immediately following it (-1
   when it ends the chain); both in old ids.  Ids below [lo] are stable,
   ids at or above [old_hi] shift by the size delta; everything outside
   the edited range is blitted, not re-walked, and tag ids stay aligned
   with the input tree (new tags are appended).  The arena is shared
   with the input and the appendix only ever appended to, so prefix and
   suffix content spans are blitted verbatim; only the attribute index
   arithmetic shifts. *)
let splice t ~lo ~old_hi ~par ~prev ~nxt srcs =
  let n_old = n_nodes t in
  let m, ma =
    List.fold_left
      (fun (n, a) s ->
        let n', a' = count_src s in
        (n + n', a + a'))
      (0, 0) srcs
  in
  let removed = old_hi - lo in
  let shift = m - removed in
  let n_new = n_old + shift in
  let a_lo = t.attr_start.(lo) in
  let a_hi = t.attr_start.(old_hi) in
  let a_old = t.attr_start.(n_old) in
  let a_shift = ma - (a_hi - a_lo) in
  let app0 = t.appendix in
  let b = make_builder n_new (a_old + a_shift) ~cbase:(String.length app0) in
  b.b_attr_n <- a_lo;
  (* Ancestors of [par] (inclusive), to disambiguate the subtree_end
     boundary case below when the replaced range is empty (an insert): a
     prefix subtree ending exactly at [lo] contains the new nodes iff it
     is an ancestor's. *)
  let anc = Hashtbl.create 16 in
  let a = ref par in
  while !a >= 0 do
    Hashtbl.replace anc !a ();
    a := t.parent.(!a)
  done;
  (* Prefix [0, lo): only pointers into the suffix shift.  [parent] slots
     all point backwards; [first_child] is node + 1 or -1, never past
     [lo].  Content spans are region offsets, not node ids — verbatim. *)
  Array.blit t.tag 0 b.b_tag 0 lo;
  Array.blit t.parent 0 b.b_parent 0 lo;
  Array.blit t.first_child 0 b.b_first_child 0 lo;
  Array.blit t.depth 0 b.b_depth 0 lo;
  Array.blit t.cont_off 0 b.b_cont_off 0 lo;
  Array.blit t.cont_len 0 b.b_cont_len 0 lo;
  Array.blit t.attr_start 0 b.b_attr_start 0 lo;
  Array.blit t.attr_names 0 b.b_attr_names 0 a_lo;
  Array.blit t.attr_voff 0 b.b_attr_voff 0 a_lo;
  Array.blit t.attr_vlen 0 b.b_attr_vlen 0 a_lo;
  for q = 0 to lo - 1 do
    let ns = t.next_sibling.(q) in
    b.b_next_sibling.(q) <- (if ns >= old_hi then ns + shift else ns);
    let se = t.subtree_end.(q) in
    b.b_subtree_end.(q) <-
      (if se > old_hi || (se = old_hi && (removed > 0 || Hashtbl.mem anc q))
       then se + shift
       else se)
  done;
  (* The new middle [lo, lo + m). *)
  let it = interner_of_seed t in
  let last_root = fill_range b it ~start:lo ~par ~dep:(t.depth.(par) + 1) srcs in
  (* Suffix [old_hi, n_old), shifted.  A suffix node's parent is either
     an ancestor of the range (below [lo]) or in the suffix — never
     inside the replaced range. *)
  let slen = n_old - old_hi in
  Array.blit t.tag old_hi b.b_tag (old_hi + shift) slen;
  Array.blit t.depth old_hi b.b_depth (old_hi + shift) slen;
  Array.blit t.cont_off old_hi b.b_cont_off (old_hi + shift) slen;
  Array.blit t.cont_len old_hi b.b_cont_len (old_hi + shift) slen;
  Array.blit t.attr_names a_hi b.b_attr_names (a_hi + a_shift) (a_old - a_hi);
  Array.blit t.attr_voff a_hi b.b_attr_voff (a_hi + a_shift) (a_old - a_hi);
  Array.blit t.attr_vlen a_hi b.b_attr_vlen (a_hi + a_shift) (a_old - a_hi);
  for s = old_hi to n_old - 1 do
    let d = s + shift in
    let p = t.parent.(s) in
    b.b_parent.(d) <- (if p >= old_hi then p + shift else p);
    let fc = t.first_child.(s) in
    b.b_first_child.(d) <- (if fc >= 0 then fc + shift else -1);
    let ns = t.next_sibling.(s) in
    b.b_next_sibling.(d) <- (if ns >= 0 then ns + shift else -1);
    b.b_subtree_end.(d) <- t.subtree_end.(s) + shift;
    b.b_attr_start.(d) <- t.attr_start.(s) + a_shift
  done;
  b.b_attr_start.(n_new) <- a_old + a_shift;
  (* Splice the sibling chain back together. *)
  let new_next = if nxt < 0 then -1 else nxt + shift in
  let head = if m > 0 then lo else new_next in
  if last_root >= 0 then b.b_next_sibling.(last_root) <- new_next;
  if prev >= 0 then b.b_next_sibling.(prev) <- head
  else begin
    let ofc = t.first_child.(par) in
    if ofc = lo || ofc < 0 then b.b_first_child.(par) <- head
  end;
  let newc = Buffer.contents b.b_content in
  let extras = Buffer.create 64 in
  let ebase = String.length app0 + String.length newc in
  fill_values b ~arena:t.arena ~app0 ~newc ~extras ~ebase ~lo ~hi:(lo + m);
  (* [par]'s immediate text children may have changed. *)
  set_value b ~arena:t.arena ~app0 ~newc ~extras ~ebase par;
  let appendix =
    if String.length newc = 0 && Buffer.length extras = 0 then app0
    else app0 ^ newc ^ Buffer.contents extras
  in
  freeze b ~arena:t.arena ~appendix (finalize_interner it ~seed:(Some t))

let prev_sibling_in t par n =
  let prev = ref (-1) and c = ref t.first_child.(par) in
  while !c >= 0 && !c <> n do
    prev := !c;
    c := t.next_sibling.(!c)
  done;
  if !c <> n then invalid_arg "Tree: node is not a child of its parent";
  !prev

let last_child_of t par =
  let last = ref (-1) and c = ref t.first_child.(par) in
  while !c >= 0 do
    last := !c;
    c := t.next_sibling.(!c)
  done;
  !last

let delete_subtree t n =
  check t n;
  if n = root then invalid_arg "Tree.delete_subtree: cannot delete the root";
  let par = t.parent.(n) in
  splice t ~lo:n ~old_hi:t.subtree_end.(n) ~par
    ~prev:(prev_sibling_in t par n) ~nxt:t.next_sibling.(n) []

let replace_subtree t n src =
  check t n;
  if n = root then build ~seed:t src
  else
    let par = t.parent.(n) in
    splice t ~lo:n ~old_hi:t.subtree_end.(n) ~par
      ~prev:(prev_sibling_in t par n) ~nxt:t.next_sibling.(n) [ src ]

let insert_subtree t ~parent:par ?before src =
  check t par;
  if is_text t par then
    invalid_arg "Tree.insert_subtree: parent is a text node";
  match before with
  | Some b ->
    check t b;
    if b = root || t.parent.(b) <> par then
      invalid_arg "Tree.insert_subtree: ~before is not a child of ~parent";
    splice t ~lo:b ~old_hi:b ~par ~prev:(prev_sibling_in t par b) ~nxt:b
      [ src ]
  | None ->
    let pos = t.subtree_end.(par) in
    splice t ~lo:pos ~old_hi:pos ~par ~prev:(last_child_of t par) ~nxt:(-1)
      [ src ]

(* ------------------------------------------------------------------ *)
(* Streaming construction: the parser pushes events and raw spans; no
   intermediate [source] is ever built.  The caller supplies the arena
   (its retained parse buffer) and appendix (its scratch region) at
   [finish]; spans pushed here use the same sign coding as the final
   tree, so they are stored verbatim.  Events are assumed well-formed —
   the pull parser has already enforced that.

   Only what the events decide is recorded while they stream in: tags,
   subtree ends, content spans and attributes.  Parent, child, sibling
   and depth links follow from the pre-order subtree ends, so [finish]
   derives them in one pass straight into arrays of the final size. *)
module Builder = struct
  type b = {
    mutable v_tag : int array;
    mutable v_subtree_end : int array;
    mutable v_cont_off : int array;
    mutable v_cont_len : int array;
    mutable v_attr_start : int array;
    mutable v_attr_names : string array;
    mutable v_attr_voff : int array;
    mutable v_attr_vlen : int array;
    mutable n : int;
    mutable an : int;
    mutable stack : int array; (* open element ids *)
    mutable sp : int;
    bit : interner;
    tag_keys : string array; (* tag cache: names compared by identity *)
    tag_vals : int array;
  }

  (* The pull parser interns names, so one tag arrives as one physical
     string every time.  A small direct-mapped cache keyed by that
     identity maps it to its tag id without hashing the string; the slot
     is picked from the length and three bytes.  A miss (a new name, a
     collision, or a caller whose names are not shared) falls back to
     [intern] and takes over the slot. *)
  let cache_size = 128

  (* A string no caller can hold, so an empty slot never matches. *)
  let no_key = Bytes.to_string (Bytes.make 1 '\000')

  let cache_slot s =
    let n = String.length s in
    if n = 0 then 0
    else
      (n
      + (5 * Char.code (String.unsafe_get s 0))
      + (3 * Char.code (String.unsafe_get s (n - 1)))
      + (11 * Char.code (String.unsafe_get s (max 0 (n - 2)))))
      land (cache_size - 1)

  let create () =
    {
      v_tag = Array.make 64 0;
      v_subtree_end = Array.make 64 0;
      v_cont_off = Array.make 64 0;
      v_cont_len = Array.make 64 0;
      v_attr_start = Array.make 65 0;
      v_attr_names = Array.make 16 "";
      v_attr_voff = Array.make 16 0;
      v_attr_vlen = Array.make 16 0;
      n = 0;
      an = 0;
      stack = Array.make 32 0;
      sp = 0;
      bit = fresh_interner ();
      tag_keys = Array.make cache_size no_key;
      tag_vals = Array.make cache_size 0;
    }

  let grow a n fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 n;
    b

  (* Allocate the next pre-order node id. *)
  let alloc bb =
    let id = bb.n in
    if id = Array.length bb.v_tag then begin
      bb.v_tag <- grow bb.v_tag id 0;
      bb.v_subtree_end <- grow bb.v_subtree_end id 0;
      bb.v_cont_off <- grow bb.v_cont_off id 0;
      bb.v_cont_len <- grow bb.v_cont_len id 0;
      bb.v_attr_start <- grow bb.v_attr_start (id + 1) 0
    end;
    bb.n <- id + 1;
    bb.v_attr_start.(id) <- bb.an;
    id

  let tag_of bb name =
    let slot = cache_slot name in
    if Array.unsafe_get bb.tag_keys slot == name then
      Array.unsafe_get bb.tag_vals slot
    else begin
      let tg = intern bb.bit name in
      bb.tag_keys.(slot) <- name;
      bb.tag_vals.(slot) <- tg;
      tg
    end

  let start_element bb name =
    let id = alloc bb in
    bb.v_tag.(id) <- tag_of bb name;
    if bb.sp = Array.length bb.stack then
      bb.stack <- grow bb.stack bb.sp 0;
    bb.stack.(bb.sp) <- id;
    bb.sp <- bb.sp + 1

  let attr bb key off len =
    if bb.an = Array.length bb.v_attr_names then begin
      bb.v_attr_names <- grow bb.v_attr_names bb.an "";
      bb.v_attr_voff <- grow bb.v_attr_voff bb.an 0;
      bb.v_attr_vlen <- grow bb.v_attr_vlen bb.an 0
    end;
    bb.v_attr_names.(bb.an) <- key;
    bb.v_attr_voff.(bb.an) <- off;
    bb.v_attr_vlen.(bb.an) <- len;
    bb.an <- bb.an + 1

  let text bb off len =
    let id = alloc bb in
    bb.v_tag.(id) <- text_tag;
    bb.v_cont_off.(id) <- off;
    bb.v_cont_len.(id) <- len;
    bb.v_subtree_end.(id) <- id + 1

  let end_element bb =
    bb.sp <- bb.sp - 1;
    bb.v_subtree_end.(bb.stack.(bb.sp)) <- bb.n

  let finish bb ~arena ~appendix =
    let n = bb.n in
    let subtree_end = Array.sub bb.v_subtree_end 0 n in
    let parent = Array.make n (-1) in
    let first_child = Array.make n (-1) in
    let next_sibling = Array.make n (-1) in
    let depth = Array.make n 0 in
    (* Node [i]'s children are [i + 1] and then each child's subtree end,
       up to [i]'s own; pre-order numbering settles [depth.(i)] before
       its children are visited. *)
    for i = 0 to n - 1 do
      let stop = subtree_end.(i) in
      if stop > i + 1 then begin
        first_child.(i) <- i + 1;
        let d = depth.(i) + 1 in
        let c = ref (i + 1) in
        while !c < stop do
          let c0 = !c in
          parent.(c0) <- i;
          depth.(c0) <- d;
          let next = subtree_end.(c0) in
          if next < stop then next_sibling.(c0) <- next;
          c := next
        done
      end
    done;
    let attr_start = Array.sub bb.v_attr_start 0 (n + 1) in
    attr_start.(n) <- bb.an;
    let b =
      {
        b_tag = Array.sub bb.v_tag 0 n;
        b_parent = parent;
        b_first_child = first_child;
        b_next_sibling = next_sibling;
        b_subtree_end = subtree_end;
        b_depth = depth;
        b_cont_off = Array.sub bb.v_cont_off 0 n;
        b_cont_len = Array.sub bb.v_cont_len 0 n;
        b_attr_start = attr_start;
        b_attr_names = Array.sub bb.v_attr_names 0 bb.an;
        b_attr_voff = Array.sub bb.v_attr_voff 0 bb.an;
        b_attr_vlen = Array.sub bb.v_attr_vlen 0 bb.an;
        b_attr_n = bb.an;
        b_content = Buffer.create 1;
        b_cbase = 0;
      }
    in
    let extras = Buffer.create 64 in
    fill_values b ~arena ~app0:appendix ~newc:"" ~extras
      ~ebase:(String.length appendix) ~lo:0 ~hi:n;
    let appendix =
      if Buffer.length extras = 0 then appendix
      else appendix ^ Buffer.contents extras
    in
    freeze b ~arena ~appendix (finalize_interner bb.bit ~seed:None)
end

let subtree_element_names t n =
  let stop = subtree_end t n in
  let seen = Hashtbl.create 8 and acc = ref [] in
  for i = n to stop - 1 do
    let tg = t.tag.(i) in
    if tg <> text_tag && not (Hashtbl.mem seen tg) then begin
      Hashtbl.add seen tg ();
      acc := t.tag_names.(tg) :: !acc
    end
  done;
  List.rev !acc

let source_element_names src =
  let seen = Hashtbl.create 8 and acc = ref [] in
  let work = ref [ src ] and continue = ref true in
  while !continue do
    match !work with
    | [] -> continue := false
    | T _ :: rest -> work := rest
    | E (tg, _, kids) :: rest ->
      if not (Hashtbl.mem seen tg) then begin
        Hashtbl.add seen tg ();
        acc := tg :: !acc
      end;
      work := List.rev_append kids rest
  done;
  List.rev !acc

let rec to_source t n =
  if is_text t n then T (text_content t n)
  else
    let kids = List.map (to_source t) (children t n) in
    E (name t n, attributes t n, kids)

let rec source_equal a b =
  match a, b with
  | T x, T y -> String.equal x y
  | E (ta, aa, ka), E (tb, ab, kb) ->
    String.equal ta tb
    && List.length aa = List.length ab
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
         aa ab
    && List.length ka = List.length kb
    && List.for_all2 source_equal ka kb
  | T _, E _ | E _, T _ -> false

let equal a b =
  n_nodes a = n_nodes b && source_equal (to_source a root) (to_source b root)

let rec pp_source ppf = function
  | T s -> Fmt.pf ppf "%S" s
  | E (tg, _, kids) ->
    Fmt.pf ppf "@[<hov 1><%s%a>@]" tg
      (fun ppf kids ->
        List.iter (fun k -> Fmt.pf ppf "@ %a" pp_source k) kids)
      kids

let pp ppf t = pp_source ppf (to_source t root)
