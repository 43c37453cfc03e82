module Dtd = Smoqe_xml.Dtd
module Ast = Smoqe_rxpath.Ast

let ( let* ) = Result.bind

module String_set = Set.Make (String)

(* Possible labels of a path's target nodes, given the context label. *)
type labels =
  | Any_label
  | Labels of String_set.t

let union_labels a b =
  match a, b with
  | Any_label, _ | _, Any_label -> Any_label
  | Labels x, Labels y -> Labels (String_set.union x y)

let rec target_labels p ctx =
  match p with
  | Ast.Self -> ctx
  | Ast.Tag s -> Labels (String_set.singleton s)
  | Ast.Wildcard -> Any_label
  | Ast.Text -> Labels (String_set.singleton "#text")
  | Ast.Seq (a, b) -> target_labels b (target_labels a ctx)
  | Ast.Union (a, b) -> union_labels (target_labels a ctx) (target_labels b ctx)
  | Ast.Star a ->
    (* zero iterations keep the context; one or more end wherever the body
       can, from an arbitrary intermediate context *)
    union_labels ctx (target_labels a Any_label)
  | Ast.Filter (a, _) -> target_labels a ctx

let check_edge doc_dtd ~parent ~child path =
  let doc_types = Dtd.element_names doc_dtd in
  let bad_tags =
    List.filter (fun tag -> not (List.mem tag doc_types)) (Ast.tags path)
  in
  if bad_tags <> [] then
    Error
      (Printf.sprintf "sigma(%s, %s) uses undeclared document tags: %s" parent
         child
         (String.concat ", " bad_tags))
  else begin
    match target_labels path (Labels (String_set.singleton parent)) with
    | Labels set when String_set.equal set (String_set.singleton child) ->
      Ok ()
    | Labels set ->
      Error
        (Printf.sprintf
           "sigma(%s, %s) can select nodes labeled {%s}, not only %s" parent
           child
           (String.concat ", " (String_set.elements set))
           child)
    | Any_label ->
      Error
        (Printf.sprintf
           "sigma(%s, %s) ends in a wildcard: its targets are not guaranteed \
            to be %s elements"
           parent child child)
  end

let of_annotations ~doc_dtd ~view_dtd annotations =
  let* () =
    if Dtd.root doc_dtd = Dtd.root view_dtd then Ok ()
    else
      Error
        (Printf.sprintf "view root %s differs from document root %s"
           (Dtd.root view_dtd) (Dtd.root doc_dtd))
  in
  let view_edges = List.sort_uniq compare (Dtd.edges view_dtd) in
  let annotated = List.map fst annotations in
  let* () =
    match List.filter (fun e -> not (List.mem e annotated)) view_edges with
    | [] -> Ok ()
    | (p, c) :: _ ->
      Error (Printf.sprintf "view edge (%s, %s) has no sigma annotation" p c)
  in
  let* () =
    match List.filter (fun e -> not (List.mem e view_edges)) annotated with
    | [] -> Ok ()
    | (p, c) :: _ ->
      Error (Printf.sprintf "sigma(%s, %s) annotates a non-edge of the view DTD" p c)
  in
  let* () =
    let seen = Hashtbl.create 16 in
    List.fold_left
      (fun acc (edge, _) ->
        let* () = acc in
        if Hashtbl.mem seen edge then begin
          let p, c = edge in
          Error (Printf.sprintf "sigma(%s, %s) annotated twice" p c)
        end
        else begin
          Hashtbl.add seen edge ();
          Ok ()
        end)
      (Ok ()) annotations
  in
  let* () =
    List.fold_left
      (fun acc ((parent, child), path) ->
        let* () = acc in
        check_edge doc_dtd ~parent ~child path)
      (Ok ()) annotations
  in
  Ok
    (Derive.unsafe_make
       ~visible:(Dtd.reachable view_dtd)
       ~sigma:annotations ~view_dtd ~approximated:[] ())

(* --- concrete syntax ----------------------------------------------------- *)

let parse_line line =
  let line = String.trim line in
  if line = "" || (String.length line >= 1 && line.[0] = '#') then Ok None
  else begin
    match String.index_opt line '=' with
    | None -> Error (Printf.sprintf "missing '=' in %S" line)
    | Some eq ->
      let lhs = String.trim (String.sub line 0 eq) in
      let rhs =
        String.trim (String.sub line (eq + 1) (String.length line - eq - 1))
      in
      let fail () = Error (Printf.sprintf "malformed annotation %S" line) in
      if
        String.length lhs < 7
        || String.sub lhs 0 6 <> "sigma("
        || lhs.[String.length lhs - 1] <> ')'
      then fail ()
      else begin
        let inner = String.sub lhs 6 (String.length lhs - 7) in
        match String.index_opt inner ',' with
        | None -> fail ()
        | Some comma ->
          let parent = String.trim (String.sub inner 0 comma) in
          let child =
            String.trim
              (String.sub inner (comma + 1) (String.length inner - comma - 1))
          in
          if parent = "" || child = "" then fail ()
          else begin
            match Smoqe_rxpath.Parser.path_of_string rhs with
            | Ok path -> Ok (Some ((parent, child), path))
            | Error msg ->
              Error (Printf.sprintf "bad path in %S: %s" line msg)
          end
      end
  end

let of_string ~doc_dtd ~view_dtd input =
  let lines = String.split_on_char '\n' input in
  let* annotations =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let* parsed = parse_line line in
        match parsed with
        | None -> Ok acc
        | Some ann -> Ok (ann :: acc))
      (Ok []) lines
  in
  of_annotations ~doc_dtd ~view_dtd (List.rev annotations)
