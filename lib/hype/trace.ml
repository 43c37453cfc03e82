module Tree = Smoqe_xml.Tree

type mark =
  | Visited
  | Dead
  | Skipped_dead
  | Pruned_tax
  | In_cans
  | Answer

type t = { table : (int, mark list) Hashtbl.t }

let create () = { table = Hashtbl.create 256 }

let mark t node m =
  let existing = Option.value ~default:[] (Hashtbl.find_opt t.table node) in
  if not (List.mem m existing) then
    Hashtbl.replace t.table node (m :: existing)

let marks t node =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.table node))

let marked t node m = List.mem m (marks t node)

let mark_to_string = function
  | Visited -> "visited"
  | Dead -> "dead"
  | Skipped_dead -> "skipped"
  | Pruned_tax -> "pruned(TAX)"
  | In_cans -> "cans"
  | Answer -> "ANSWER"

let render t tree =
  let buf = Buffer.create 1024 in
  Tree.iter_preorder tree (fun n ->
      let pad = String.make (2 * Tree.depth tree n) ' ' in
      let label =
        if Tree.is_text tree n then
          Printf.sprintf "%S" (Tree.text_content tree n)
        else "<" ^ Tree.name tree n ^ ">"
      in
      let status =
        match marks t n with
        | [] -> "-"
        | ms -> String.concat "," (List.map mark_to_string ms)
      in
      Buffer.add_string buf
        (Printf.sprintf "%4d %s%-30s %s\n" n pad label status));
  Buffer.contents buf
