(* The parser's front end to the one tree constructor: it drives the
   same [Tree.Builder] events that [Tree.of_source] and the update
   splices push, and the builder writes each column as the events decide
   it.  The parser runs in retain mode, so its byte region is the finished
   tree's arena and its scratch the appendix — the cursor's raw spans
   are stored verbatim and not one content string is allocated on the
   way.  Well-formedness (balance, single root) is enforced by the pull
   parser itself, which raises positioned [Pull.Error]s. *)
(* When the input's length is known, the node columns grow to the node
   count the bytes parsed so far predict for the whole input, plus a
   sixteenth: a document of uniform density fills them with one large
   copy and little slack. *)
let build_retained ?length p =
  let predict =
    Option.map
      (fun length n ->
        let expect = n * length / max 1 (Pull.offset p) in
        expect + (expect / 16))
      length
  in
  let b = Tree.Builder.create ?predict () in
  let rec loop () =
    match Pull.cursor_next p with
    | Pull.Cursor_eof -> ()
    | Pull.Cursor_start ->
      Tree.Builder.start_element b (Pull.cur_name p);
      for i = 0 to Pull.cur_attr_count p - 1 do
        let off, len = Pull.cur_attr_raw p i in
        Tree.Builder.attr b (Pull.cur_attr_name p i) off len
      done;
      loop ()
    | Pull.Cursor_end ->
      Tree.Builder.end_element b;
      loop ()
    | Pull.Cursor_text ->
      let off, len = Pull.cur_text_raw p in
      Tree.Builder.text b off len;
      loop ()
  in
  loop ();
  Tree.Builder.finish b ~arena:(Pull.retained p)
    ~appendix:(Pull.scratch_contents p)

let tree_of_string ?keep_ws ?budget s =
  build_retained ~length:(String.length s)
    (Pull.of_string ?keep_ws ?budget ~retain:true s)

(* A regular file's length sizes the retained buffer once — it fills
   exactly, never doubles, and becomes the tree's arena without a copy —
   and lets the builder predict the node count.  A length that is
   unknown (a pipe) or stale (a growing file) only costs the default
   growth. *)
let tree_of_file ?keep_ws ?budget path =
  let ic = open_in_bin path in
  let chunk_size =
    match in_channel_length ic with
    | n when n > 0 -> Some n
    | _ | (exception Sys_error _) -> None
  in
  match
    build_retained ?length:chunk_size
      (Pull.of_channel ?keep_ws ?budget ?chunk_size ~retain:true ic)
  with
  | t -> close_in ic; t
  | exception e -> close_in_noerr ic; raise e

(* Result-returning variants: the raise/result split of this module used to
   force every caller to re-enumerate the parser's exceptions.  The match
   is deliberately narrow — only the exceptions the parse path is
   specified to produce.  [Invalid_argument] in particular is NOT caught:
   since the pull parser raises positioned Pull.Errors and Tree
   construction is worklist-based, an [Invalid_argument] here is a bug in
   a deeper layer that must surface, not be laundered into a parse
   failure. *)
let res_of ?file f =
  match f () with
  | t -> Ok t
  | exception Pull.Error (line, col, msg) ->
    Error
      (match file with
      | Some path -> Printf.sprintf "%s:%d:%d: %s" path line col msg
      | None -> Printf.sprintf "%d:%d: %s" line col msg)
  | exception Sys_error msg -> Error msg
  | exception Smoqe_robust.Budget.Exceeded { what; limit } ->
    Error (Printf.sprintf "budget exceeded: %s (limit %s)" what limit)
  | exception Smoqe_robust.Failpoint.Injected site ->
    Error ("injected fault at " ^ site)

let tree_of_string_res ?keep_ws ?budget s =
  res_of (fun () -> tree_of_string ?keep_ws ?budget s)

let tree_of_file_res ?keep_ws ?budget path =
  res_of ~file:path (fun () -> tree_of_file ?keep_ws ?budget path)

(* Explicit worklist, not native recursion: document depth must never be
   limited by the OCaml stack (DESIGN.md §12) — the [max_depth] budget is
   the only depth limit anywhere in the parse pipeline. *)
type walk_item = Visit of Tree.node | Close of string

let events_of_tree t =
  let acc = ref [] in
  let work = ref [ Visit Tree.root ] in
  let continue = ref true in
  while !continue do
    match !work with
    | [] -> continue := false
    | Close tag :: rest ->
      work := rest;
      acc := Pull.End_element tag :: !acc
    | Visit n :: rest ->
      if Tree.is_text t n then begin
        work := rest;
        acc := Pull.Text (Tree.text_content t n) :: !acc
      end
      else begin
        let tag = Tree.name t n in
        acc := Pull.Start_element (tag, Tree.attributes t n) :: !acc;
        work :=
          List.fold_left
            (fun tail c -> Visit c :: tail)
            (Close tag :: rest)
            (List.rev (Tree.children t n))
      end
  done;
  List.rev !acc
