let needs_entity ~quotes c =
  match c with
  | '&' | '<' | '>' -> true
  | '"' | '\'' -> quotes
  | _ -> false

(* Slice-wise escape straight into a buffer: scan for the first byte that
   needs an entity, and in the common clean case the whole slice is one
   [Buffer.add_substring] — no intermediate string either way. *)
let add_escaped ~quotes buf s off len =
  let stop = off + len in
  let i = ref off in
  while !i < stop && not (needs_entity ~quotes (String.unsafe_get s !i)) do
    incr i
  done;
  if !i = stop then Buffer.add_substring buf s off len
  else begin
    Buffer.add_substring buf s off (!i - off);
    for j = !i to stop - 1 do
      match String.unsafe_get s j with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when quotes -> Buffer.add_string buf "&quot;"
      | '\'' when quotes -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c
    done
  end

let add_escaped_text buf s off len = add_escaped ~quotes:false buf s off len
let add_escaped_attr buf s off len = add_escaped ~quotes:true buf s off len

let escape_text s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && not (needs_entity ~quotes:false (String.unsafe_get s !i)) do
    incr i
  done;
  if !i = n then s
  else begin
    let buf = Buffer.create (n + 8) in
    add_escaped ~quotes:false buf s 0 n;
    Buffer.contents buf
  end

(* Tree attributes, read in place through the packed spans. *)
let add_tree_attrs buf t n =
  Tree.iter_attrs t n (fun k backing off len ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      add_escaped_attr buf backing off len;
      Buffer.add_char buf '"')

let add_text_content buf t n =
  let backing, off, len = Tree.content_slice t n in
  add_escaped_text buf backing off len

(* Worklist, not native recursion: serialization must follow the parser
   in treating document depth as data, never as OCaml stack (DESIGN.md
   §12). *)
type ser_item = Node of int * Tree.node | Close of int * string

let subtree_to_buf ~indent buf t start =
  let pad level =
    if indent then
      for _ = 1 to 2 * level do
        Buffer.add_char buf ' '
      done
  in
  let work = ref [ Node (0, start) ] in
  let continue = ref true in
  while !continue do
    match !work with
    | [] -> continue := false
    | Close (level, tag) :: rest ->
      work := rest;
      pad level;
      Buffer.add_string buf "</";
      Buffer.add_string buf tag;
      Buffer.add_char buf '>';
      if indent then Buffer.add_char buf '\n'
    | Node (level, n) :: rest ->
      work := rest;
      if Tree.is_text t n then begin
        pad level;
        add_text_content buf t n;
        if indent then Buffer.add_char buf '\n'
      end
      else begin
        let tag = Tree.name t n in
        pad level;
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        add_tree_attrs buf t n;
        match Tree.children t n with
        | [] ->
          Buffer.add_string buf "/>";
          if indent then Buffer.add_char buf '\n'
        | [ only ] when Tree.is_text t only ->
          Buffer.add_char buf '>';
          add_text_content buf t only;
          Buffer.add_string buf "</";
          Buffer.add_string buf tag;
          Buffer.add_char buf '>';
          if indent then Buffer.add_char buf '\n'
        | kids ->
          Buffer.add_char buf '>';
          if indent then Buffer.add_char buf '\n';
          work :=
            List.fold_left
              (fun tail k -> Node (level + 1, k) :: tail)
              (Close (level, tag) :: !work)
              (List.rev kids)
      end
  done

let to_string ?(indent = true) ?(decl = false) t =
  let buf = Buffer.create 1024 in
  if decl then Buffer.add_string buf "<?xml version=\"1.0\"?>\n";
  subtree_to_buf ~indent buf t Tree.root;
  Buffer.contents buf

let subtree_to_string ?(indent = true) t n =
  let buf = Buffer.create 256 in
  subtree_to_buf ~indent buf t n;
  Buffer.contents buf

let to_channel ?indent ?decl oc t =
  output_string oc (to_string ?indent ?decl t)

let to_file ?indent ?decl path t =
  let oc = open_out_bin path in
  match to_channel ?indent ?decl oc t with
  | () -> close_out oc
  | exception e -> close_out_noerr oc; raise e
