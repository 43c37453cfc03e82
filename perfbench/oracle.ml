(* The answer oracle: materialize the view, evaluate the query on the
   copy with the naive set-at-a-time evaluator, and map the answers back
   through provenance (admin queries run naively on the document itself).
   It shares no evaluation code with the engine.  Expected answer bytes
   are the oracle's nodes serialized the way a client receives them. *)

module Tree = Smoqe_xml.Tree
module Serializer = Smoqe_xml.Serializer
module Derive = Smoqe_security.Derive
module Materialize = Smoqe_security.Materialize
module Naive = Smoqe_baseline.Naive
module Rx_parser = Smoqe_rxpath.Parser

(* One answer as the engine serializes it: a text node's escaped content,
   or an element's compact subtree. *)
let answer_xml tree n =
  if Tree.is_text tree n then begin
    let backing, off, len = Tree.content_slice tree n in
    let buf = Buffer.create (len + 8) in
    Serializer.add_escaped_text buf backing off len;
    Buffer.contents buf
  end
  else Serializer.subtree_to_string ~indent:false tree n

(* The bytes a client is sent: each answer followed by a newline. *)
let write_answers buf xmls =
  Buffer.clear buf;
  List.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n')
    xmls

type expected = { ids : int list; digest : Digest.t }

(* The oracle for one document version. *)
type t = {
  tree : Tree.t;
  view : Derive.view;
  mutable materialized : Materialize.materialized option;
  memo : (bool * string, expected) Hashtbl.t;
}

let create tree view = { tree; view; materialized = None; memo = Hashtbl.create 64 }

let materialized t =
  match t.materialized with
  | Some m -> m
  | None ->
    let m = Materialize.materialize t.view t.tree in
    t.materialized <- Some m;
    m

let compute t ~member text =
  let path =
    match Rx_parser.path_of_string text with
    | Ok p -> p
    | Error msg -> failwith ("oracle: " ^ msg)
  in
  let ids =
    if member then
      let m = materialized t in
      List.map
        (fun v -> m.Materialize.provenance.(v))
        (Naive.run m.Materialize.tree path).Naive.answers
    else (Naive.run t.tree path).Naive.answers
  in
  let ids = List.sort_uniq compare ids in
  let buf = Buffer.create 256 in
  write_answers buf (List.map (answer_xml t.tree) ids);
  { ids; digest = Digest.string (Buffer.contents buf) }

let expect t ~member text =
  match Hashtbl.find_opt t.memo (member, text) with
  | Some e -> e
  | None ->
    let e = compute t ~member text in
    Hashtbl.add t.memo (member, text) e;
    e

(* Does a served answer (node ids and the bytes written) match? *)
let matches t ~member text ~ids ~bytes =
  let e = expect t ~member text in
  ids = e.ids && Digest.string bytes = e.digest
