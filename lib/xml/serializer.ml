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

(* One tree attribute, read in place through its packed span. *)
let add_attr buf k backing off len =
  Buffer.add_char buf ' ';
  Buffer.add_string buf k;
  Buffer.add_string buf "=\"";
  add_escaped_attr buf backing off len;
  Buffer.add_char buf '"'

let add_text_content buf t n =
  let backing, off, len = Tree.content_slice t n in
  add_escaped_text buf backing off len

(* A loop over pre-order ids, not native recursion: serialization must
   follow the parser in treating document depth as data, never as OCaml
   stack (DESIGN.md §12).  The open elements are an int stack; an element
   closes when the walk reaches its subtree end.  Leaves and elements
   whose only child is a text node are written whole. *)
let subtree_to_buf ~indent buf t start =
  let pad level =
    if indent then
      for _ = 1 to 2 * level do
        Buffer.add_char buf ' '
      done
  in
  let newline () = if indent then Buffer.add_char buf '\n' in
  let close_tag tag =
    Buffer.add_string buf "</";
    Buffer.add_string buf tag;
    Buffer.add_char buf '>';
    newline ()
  in
  let attr = add_attr buf in
  let opened = ref (Array.make 16 0) and sp = ref 0 in
  (* close the open elements whose subtrees end at or before [i] *)
  let close_to i =
    while !sp > 0 && Tree.subtree_end t !opened.(!sp - 1) <= i do
      decr sp;
      pad !sp;
      close_tag (Tree.name t !opened.(!sp))
    done
  in
  let stop = Tree.subtree_end t start in
  let n = ref start in
  while !n < stop do
    let i = !n in
    close_to i;
    pad !sp;
    if Tree.is_text t i then begin
      add_text_content buf t i;
      newline ();
      n := i + 1
    end
    else begin
      let tag = Tree.name t i and e = Tree.subtree_end t i in
      Buffer.add_char buf '<';
      Buffer.add_string buf tag;
      Tree.iter_attrs t i attr;
      if e = i + 1 then begin
        Buffer.add_string buf "/>";
        newline ();
        n := e
      end
      else if e = i + 2 && Tree.is_text t (i + 1) then begin
        Buffer.add_char buf '>';
        add_text_content buf t (i + 1);
        close_tag tag;
        n := e
      end
      else begin
        Buffer.add_char buf '>';
        newline ();
        if !sp = Array.length !opened then
          opened := Array.append !opened (Array.make !sp 0);
        !opened.(!sp) <- i;
        incr sp;
        n := i + 1
      end
    end
  done;
  close_to stop

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
