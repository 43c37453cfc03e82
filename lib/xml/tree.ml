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

   REPRESENTATION (DESIGN.md §15): the tree is packed.  Structure is four
   flat pre-order int arrays — tag, parent, subtree end and depth — and
   [n] nodes: a column may be longer than the tree (a parsed tree keeps
   its builder's columns as they grew), and only its first [n] slots are
   nodes.  There are no child or sibling links: node [n]'s first child is
   [n + 1] when [subtree_end n > n + 1], and the next sibling of a child
   [c] is [subtree_end c] while that is below its parent's end.  Content
   is never stored as per-node strings.  All text bytes live in two
   shared immutable regions:

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
  n : int; (* node count; node columns may be longer *)
  tag : int array;
  parent : int array; (* -1 at the root *)
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

let n_nodes t = t.n
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
  if t.subtree_end.(n) > n + 1 then Some (n + 1) else None

let next_sibling t n =
  check t n;
  if n = root then None
  else
    let s = t.subtree_end.(n) in
    if s < t.subtree_end.(t.parent.(n)) then Some s else None

(* A node's children are [n + 1] and then each child's subtree end, up
   to [n]'s own. *)
let iter_children t n f =
  check t n;
  let stop = t.subtree_end.(n) in
  let c = ref (n + 1) in
  while !c < stop do
    let c0 = !c in
    c := t.subtree_end.(c0);
    f c0
  done

let fold_children t n ~init ~f =
  check t n;
  let stop = t.subtree_end.(n) in
  let rec loop acc c =
    if c >= stop then acc else loop (f acc c) t.subtree_end.(c)
  in
  loop init (n + 1)

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

(* [len] bytes of [a] from [i] equal those of [b] from [j]. *)
let sub_equal a i b j len =
  let k = ref 0 in
  while
    !k < len && String.unsafe_get a (i + !k) = String.unsafe_get b (j + !k)
  do
    incr k
  done;
  !k = len

let value_equal t n s =
  check t n;
  let len = t.cont_len.(n) in
  String.length s = len
  &&
  let off = t.cont_off.(n) in
  if off >= 0 then sub_equal t.arena off s 0 len
  else sub_equal t.appendix (lnot off) s 0 len

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

(* Construction.  Every tree — parsed, built from a [source], or spliced
   by an update — is made one way: a [Builder] writes each pre-order
   column once, at the event that decides it.  Opening a node writes its
   tag, parent and depth; closing an element writes its subtree end and,
   unless it has two or more text children, its comparison value.  Only
   mixed-content values are settled after the last event.  Nothing here
   recurses over document depth: a parsed document may nest arbitrarily
   deep, and the only depth limit in the pipeline is the [max_depth]
   budget — not [Stack_overflow] (DESIGN.md §12). *)

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


(* Settle element [i]'s comparison value from its text children, read
   through the subtree ends.  A value is a span, not a copy: a single
   text child's value is that child's span, an element without text
   children has the empty span, and only a mixed-content element appends
   its concatenated text to [extras], whose bytes will follow
   [appendix]. *)
let set_value ~tag ~ends ~off ~len ~arena ~appendix extras i =
  let stop = ends.(i) in
  let first = ref (-1) and count = ref 0 in
  let c = ref (i + 1) in
  while !c < stop do
    if tag.(!c) = text_tag then begin
      if !count = 0 then first := !c;
      incr count
    end;
    c := ends.(!c)
  done;
  if !count = 0 then begin
    off.(i) <- 0;
    len.(i) <- 0
  end
  else if !count = 1 then begin
    off.(i) <- off.(!first);
    len.(i) <- len.(!first)
  end
  else begin
    let base = String.length appendix in
    let start = base + Buffer.length extras in
    let c = ref (i + 1) in
    while !c < stop do
      let o = off.(!c) in
      if tag.(!c) <> text_tag then ()
      else if o >= 0 then Buffer.add_substring extras arena o len.(!c)
      else Buffer.add_substring extras appendix (lnot o) len.(!c);
      c := ends.(!c)
    done;
    off.(i) <- lnot start;
    len.(i) <- base + Buffer.length extras - start
  end

let with_extras appendix extras =
  if Buffer.length extras = 0 then appendix
  else appendix ^ Buffer.contents extras

(* A tree under construction: growable pre-order columns, each slot
   written once by the structure event that decides it.  The parser
   pushes raw spans into its own byte regions, already in the final
   tree's coding ([off >= 0] into the arena, [off < 0] at [lnot off] into
   the appendix), so they are stored verbatim.  A [source] is pushed
   through the same events by [add_source]; its content goes to
   [content], which will land in the final appendix at offset [cbase], so
   its spans are coded up front and never re-encoded.  Events are assumed
   well-formed — the pull parser and the [source] walk both guarantee
   it. *)
module Builder = struct
  type b = {
    mutable v_tag : int array;
    mutable v_parent : int array;
    mutable v_subtree_end : int array;
    mutable v_depth : int array;
    mutable v_cont_off : int array;
    mutable v_cont_len : int array;
    mutable v_attr_start : int array;
    mutable v_attr_names : string array;
    mutable v_attr_voff : int array;
    mutable v_attr_vlen : int array;
    mutable n : int;
    mutable an : int;
    mutable stack : int array; (* open element ids *)
    mutable texts : int array; (* per open element: see [no_text] *)
    mutable sp : int;
    mutable mixed : int array; (* closed elements with 2+ text children *)
    mutable n_mixed : int;
    bit : interner;
    tag_keys : string array; (* tag cache: names compared by identity *)
    tag_vals : int array;
    content : Buffer.t;
    cbase : int;
    predict : int -> int; (* see [alloc] *)
  }

  (* [texts.(k)] of the open element [stack.(k)]: its one text child so
     far, [no_text] before the first, [mixed] after the second. *)
  let no_text = -1
  let mixed = -2

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

  let make ?(predict = fun n -> 2 * n) bit ~cbase =
    {
      v_tag = Array.make 64 0;
      v_parent = Array.make 64 0;
      v_subtree_end = Array.make 64 0;
      v_depth = Array.make 64 0;
      v_cont_off = Array.make 64 0;
      v_cont_len = Array.make 64 0;
      v_attr_start = Array.make 65 0;
      v_attr_names = Array.make 16 "";
      v_attr_voff = Array.make 16 0;
      v_attr_vlen = Array.make 16 0;
      n = 0;
      an = 0;
      stack = Array.make 32 0;
      texts = Array.make 32 0;
      sp = 0;
      mixed = Array.make 8 0;
      n_mixed = 0;
      bit;
      tag_keys = Array.make cache_size no_key;
      tag_vals = Array.make cache_size 0;
      content = Buffer.create 64;
      cbase;
      predict;
    }

  let create ?predict () = make ?predict (fresh_interner ()) ~cbase:0

  let grow_to cap a n fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b

  let grow a n fill = grow_to (2 * Array.length a) a n fill

  (* Allocate the next pre-order node id under the innermost open
     element, writing its parent and depth.  Full node columns double
     while they are small; from [predict_from] nodes on they grow to
     [predict]'s estimate of the final count, kept between 5/4 and 4
     times the current one.  A parse whose input length is known thus
     copies its large columns fewer times than doubling would, and
     slack stays under 4x whatever the input claims. *)
  let predict_from = 4096

  let alloc bb =
    let id = bb.n in
    if id = Array.length bb.v_tag then begin
      let cap =
        if id < predict_from then 2 * id
        else min (4 * id) (max (id + (id / 4)) (bb.predict id))
      in
      bb.v_tag <- grow_to cap bb.v_tag id 0;
      bb.v_parent <- grow_to cap bb.v_parent id 0;
      bb.v_subtree_end <- grow_to cap bb.v_subtree_end id 0;
      bb.v_depth <- grow_to cap bb.v_depth id 0;
      bb.v_cont_off <- grow_to cap bb.v_cont_off id 0;
      bb.v_cont_len <- grow_to cap bb.v_cont_len id 0;
      bb.v_attr_start <- grow_to (cap + 1) bb.v_attr_start (id + 1) 0
    end;
    bb.n <- id + 1;
    bb.v_attr_start.(id) <- bb.an;
    let sp = bb.sp in
    bb.v_parent.(id) <- (if sp = 0 then -1 else bb.stack.(sp - 1));
    bb.v_depth.(id) <- sp;
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
    if bb.sp = Array.length bb.stack then begin
      bb.stack <- grow bb.stack bb.sp 0;
      bb.texts <- grow bb.texts bb.sp 0
    end;
    bb.stack.(bb.sp) <- id;
    bb.texts.(bb.sp) <- no_text;
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
    bb.v_subtree_end.(id) <- id + 1;
    let k = bb.sp - 1 in
    if k >= 0 then begin
      let seen = bb.texts.(k) in
      if seen = no_text then bb.texts.(k) <- id
      else if seen >= 0 then bb.texts.(k) <- mixed
    end

  (* Close the innermost element: its subtree end, and its value when it
     has at most one text child; a mixed one is settled by [finish]. *)
  let end_element bb =
    let k = bb.sp - 1 in
    bb.sp <- k;
    let id = bb.stack.(k) and only = bb.texts.(k) in
    bb.v_subtree_end.(id) <- bb.n;
    if only >= 0 then begin
      bb.v_cont_off.(id) <- bb.v_cont_off.(only);
      bb.v_cont_len.(id) <- bb.v_cont_len.(only)
    end
    else if only = no_text then begin
      bb.v_cont_off.(id) <- 0;
      bb.v_cont_len.(id) <- 0
    end
    else begin
      if bb.n_mixed = Array.length bb.mixed then
        bb.mixed <- grow bb.mixed bb.n_mixed 0;
      bb.mixed.(bb.n_mixed) <- id;
      bb.n_mixed <- bb.n_mixed + 1
    end

  (* Append [s] to [content]; returns its coded offset. *)
  let add_content bb s =
    let off = lnot (bb.cbase + Buffer.length bb.content) in
    Buffer.add_string bb.content s;
    off

  (* Push [src] as events.  The worklist holds, for each open element,
     its children still to visit. *)
  let add_source bb src =
    let open_kids = ref [] in
    let visit = function
      | T s -> text bb (add_content bb s) (String.length s)
      | E (tg, ats, kids) ->
        if tg = "" then invalid_arg "Tree.of_source: empty tag name";
        start_element bb tg;
        List.iter
          (fun (k, v) -> attr bb k (add_content bb v) (String.length v))
          ats;
        open_kids := kids :: !open_kids
    in
    let rec drain () =
      match !open_kids with
      | [] -> ()
      | [] :: rest ->
        end_element bb;
        open_kids := rest;
        drain ()
      | (kid :: more) :: rest ->
        open_kids := more :: rest;
        visit kid;
        drain ()
    in
    visit src;
    drain ()

  (* The pushed nodes as a tree: the columns are kept as they grew, not
     copied, and only the mixed-content values are settled here.  The
     builder is spent — its columns now belong to an immutable tree. *)
  let finish_with bb ~arena ~appendix ~seed =
    let n = bb.n in
    bb.v_attr_start.(n) <- bb.an;
    let extras = Buffer.create 16 in
    for k = 0 to bb.n_mixed - 1 do
      set_value ~tag:bb.v_tag ~ends:bb.v_subtree_end ~off:bb.v_cont_off
        ~len:bb.v_cont_len ~arena ~appendix extras bb.mixed.(k)
    done;
    let tag_names, tag_ids, tags_token = finalize_interner bb.bit ~seed in
    { n; tag = bb.v_tag; parent = bb.v_parent; subtree_end = bb.v_subtree_end;
      depth = bb.v_depth; arena; appendix = with_extras appendix extras;
      cont_off = bb.v_cont_off; cont_len = bb.v_cont_len;
      attr_start = bb.v_attr_start; attr_names = bb.v_attr_names;
      attr_voff = bb.v_attr_voff; attr_vlen = bb.v_attr_vlen; tag_names;
      tag_ids; tags_token }

  let finish bb ~arena ~appendix = finish_with bb ~arena ~appendix ~seed:None
end

(* A fresh tree from [src]; [~seed] keeps a tree's tag ids stable (the
   root case of [replace_subtree]). *)
let source_tree ~seed src =
  let it =
    match seed with
    | Some t0 -> interner_of_seed t0
    | None -> fresh_interner ()
  in
  let b = Builder.make it ~cbase:0 in
  Builder.add_source b src;
  Builder.finish_with b ~arena:"" ~appendix:(Buffer.contents b.content) ~seed

let of_source src = source_tree ~seed:None src

(* The first [len] slots of [old] with [lo, hi) replaced by the first [m]
   of [mid]. *)
let join old ~len ~lo ~hi mid m =
  let rest = len - hi in
  let total = lo + m + rest in
  if total = 0 then [||]
  else begin
    let r = Array.make total (if m > 0 then mid.(0) else old.(0)) in
    Array.blit old 0 r 0 lo;
    Array.blit mid 0 r lo m;
    Array.blit old hi r (lo + m) rest;
    r
  end

(* [splice t ~lo ~old_hi ~par srcs] replaces the node range [lo, old_hi)
   — zero or more whole consecutive sibling subtrees under [par] — with
   the subtrees described by [srcs].  The new middle is pushed through a
   [Builder] that interns against [t]'s tags (new tags are appended) and
   codes its content after [t]'s appendix.  The columns are joined — the
   prefix [0, lo) verbatim, the middle and the suffix after it — and only
   what moved is derived:
   - a middle node's end and parent are offset by [lo] (a top-level one's
     parent is [par]), its depth by [par]'s depth + 1, its attribute
     index by [a_lo], and its value came from the builder's close event;
   - a suffix node's end and attribute index shift by the size deltas,
     its parent only when that parent is itself in the suffix, and its
     depth not at all;
   - of the prefix, only [par] and its ancestors contain the range, so
     only their subtree ends move, and only [par]'s value, whose text
     children may have changed, is recomputed.
   The arena is shared with [t] and the appendix only appended to, so
   every other content span stays valid verbatim. *)
let splice t ~lo ~old_hi ~par srcs =
  let b = Builder.make (interner_of_seed t) ~cbase:(String.length t.appendix) in
  List.iter (Builder.add_source b) srcs;
  let m = b.n and ma = b.an in
  let shift = m - (old_hi - lo) and n = t.n + m - (old_hi - lo) in
  let a_lo = t.attr_start.(lo) and a_hi = t.attr_start.(old_hi) in
  let a_shift = ma - (a_hi - a_lo) in
  let nodes old mid = join old ~len:t.n ~lo ~hi:old_hi mid m in
  let attrs old mid =
    join old ~len:t.attr_start.(t.n) ~lo:a_lo ~hi:a_hi mid ma
  in
  let tag = nodes t.tag b.v_tag in
  let ends = nodes t.subtree_end b.v_subtree_end in
  let parent = nodes t.parent b.v_parent in
  let depth = nodes t.depth b.v_depth in
  let off = nodes t.cont_off b.v_cont_off in
  let len = nodes t.cont_len b.v_cont_len in
  let attr_start =
    join t.attr_start ~len:(t.n + 1) ~lo ~hi:old_hi b.v_attr_start m
  in
  let d0 = t.depth.(par) + 1 in
  for i = lo to lo + m - 1 do
    ends.(i) <- ends.(i) + lo;
    let p = parent.(i) in
    parent.(i) <- (if p < 0 then par else p + lo);
    depth.(i) <- depth.(i) + d0;
    attr_start.(i) <- attr_start.(i) + a_lo
  done;
  for i = lo + m to n - 1 do
    ends.(i) <- ends.(i) + shift;
    let p = parent.(i) in
    if p >= old_hi then parent.(i) <- p + shift;
    attr_start.(i) <- attr_start.(i) + a_shift
  done;
  attr_start.(n) <- attr_start.(n) + a_shift;
  let a = ref par in
  while !a >= 0 do
    ends.(!a) <- ends.(!a) + shift;
    a := t.parent.(!a)
  done;
  let appendix =
    if Buffer.length b.content = 0 then t.appendix
    else t.appendix ^ Buffer.contents b.content
  in
  let extras = Buffer.create 16 in
  let settle i =
    set_value ~tag ~ends ~off ~len ~arena:t.arena ~appendix extras i
  in
  for k = 0 to b.n_mixed - 1 do
    settle (lo + b.mixed.(k))
  done;
  settle par;
  let tag_names, tag_ids, tags_token =
    finalize_interner b.bit ~seed:(Some t)
  in
  { n; tag; parent; subtree_end = ends; depth; arena = t.arena;
    appendix = with_extras appendix extras; cont_off = off; cont_len = len;
    attr_start; attr_names = attrs t.attr_names b.v_attr_names;
    attr_voff = attrs t.attr_voff b.v_attr_voff;
    attr_vlen = attrs t.attr_vlen b.v_attr_vlen; tag_names; tag_ids;
    tags_token }

let delete_subtree t n =
  check t n;
  if n = root then invalid_arg "Tree.delete_subtree: cannot delete the root";
  splice t ~lo:n ~old_hi:t.subtree_end.(n) ~par:t.parent.(n) []

let replace_subtree t n src =
  check t n;
  if n = root then source_tree ~seed:(Some t) src
  else splice t ~lo:n ~old_hi:t.subtree_end.(n) ~par:t.parent.(n) [ src ]

let insert_subtree t ~parent:par ?before src =
  check t par;
  if is_text t par then
    invalid_arg "Tree.insert_subtree: parent is a text node";
  match before with
  | Some b ->
    check t b;
    if b = root || t.parent.(b) <> par then
      invalid_arg "Tree.insert_subtree: ~before is not a child of ~parent";
    splice t ~lo:b ~old_hi:b ~par [ src ]
  | None ->
    let pos = t.subtree_end.(par) in
    splice t ~lo:pos ~old_hi:pos ~par [ src ]

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

(* Reverse pre-order with a stack of finished subtrees, lowest id on
   top: when node [i] is reached, its children are exactly the entries
   on top below its subtree end (each child has consumed its own). *)
let to_source t n =
  let stop = subtree_end t n in
  let built = ref [] in
  for i = stop - 1 downto n do
    let src =
      if t.tag.(i) = text_tag then T (slice t t.cont_off.(i) t.cont_len.(i))
      else begin
        let e = t.subtree_end.(i) in
        let rec take kids = function
          | (c, kid) :: rest when c < e -> take (kid :: kids) rest
          | rest ->
            built := rest;
            List.rev kids
        in
        let kids = take [] !built in
        E (t.tag_names.(t.tag.(i)), attributes t i, kids)
      end
    in
    built := (i, src) :: !built
  done;
  snd (List.hd !built)

(* A coded span of [a] holds the same bytes as one of [b]. *)
let span_equal a oa la b ob lb =
  la = lb
  &&
  let ba, oa = if oa >= 0 then (a.arena, oa) else (a.appendix, lnot oa) in
  let bb, ob = if ob >= 0 then (b.arena, ob) else (b.appendix, lnot ob) in
  sub_equal ba oa bb ob la

(* Column by column: the tag names and subtree ends fix the structure;
   attributes compare in order, and text nodes by content (an element's
   value follows from its text children). *)
let equal a b =
  let node i =
    String.equal a.tag_names.(a.tag.(i)) b.tag_names.(b.tag.(i))
    && a.subtree_end.(i) = b.subtree_end.(i)
    && (a.tag.(i) <> text_tag
       || span_equal a a.cont_off.(i) a.cont_len.(i) b b.cont_off.(i)
            b.cont_len.(i))
    &&
    let lo = a.attr_start.(i) and hi = a.attr_start.(i + 1) in
    let d = b.attr_start.(i) - lo in
    b.attr_start.(i + 1) - d = hi
    &&
    let rec attrs k =
      k >= hi
      || String.equal a.attr_names.(k) b.attr_names.(k + d)
         && span_equal a a.attr_voff.(k) a.attr_vlen.(k) b b.attr_voff.(k + d)
              b.attr_vlen.(k + d)
         && attrs (k + 1)
    in
    attrs lo
  in
  let rec from i = i >= a.n || (node i && from (i + 1)) in
  a.n = b.n && from 0
