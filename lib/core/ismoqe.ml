module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Mfa = Smoqe_automata.Mfa
module Dot = Smoqe_automata.Dot
module Derive = Smoqe_security.Derive
module Policy = Smoqe_security.Policy
module Trace = Smoqe_hype.Trace
module Stats = Smoqe_hype.Stats
module Tax = Smoqe_tax.Tax

let schema_graph dtd =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "schema (root: %s)\n" (Dtd.root dtd));
  (* Depth-first walk of the schema graph, cutting cycles at back-edges. *)
  let visited = Hashtbl.create 16 in
  let rec walk depth name =
    let pad = String.make (2 * depth) ' ' in
    let content =
      match Dtd.content dtd name with
      | None -> "?"
      | Some c -> Fmt.str "%a" (fun ppf -> function
          | Dtd.Empty -> Fmt.string ppf "EMPTY"
          | Dtd.Any -> Fmt.string ppf "ANY"
          | Dtd.Mixed [] -> Fmt.string ppf "#PCDATA"
          | Dtd.Mixed names ->
            Fmt.pf ppf "(#PCDATA | %a)*" Fmt.(list ~sep:(any " | ") string) names
          | Dtd.Children r -> Dtd.pp_regex ppf r) c
    in
    if Hashtbl.mem visited name then
      Buffer.add_string buf (Printf.sprintf "%s%s -> (see above)\n" pad name)
    else begin
      Hashtbl.add visited name ();
      Buffer.add_string buf (Printf.sprintf "%s%s -> %s\n" pad name content);
      List.iter (walk (depth + 1)) (Dtd.child_types dtd name)
    end
  in
  walk 1 (Dtd.root dtd);
  Buffer.contents buf

let view_specification view =
  let buf = Buffer.create 1024 in
  (match Derive.policy view with
  | Some policy ->
    Buffer.add_string buf "== access control policy ==\n";
    Buffer.add_string buf (Policy.to_string policy);
    Buffer.add_string buf "\n== derived view specification ==\n"
  | None -> Buffer.add_string buf "== view specification (manual) ==\n");
  Buffer.add_string buf (Fmt.str "%a" Derive.pp_spec view);
  Buffer.add_string buf "\n== view DTD exposed to users ==\n";
  Buffer.add_string buf (Dtd.to_string (Derive.view_dtd view));
  (match Derive.approximated view with
  | [] -> ()
  | names ->
    Buffer.add_string buf
      (Printf.sprintf
         "(content models of %s widened to a star form: recursive hidden \
          region)\n"
         (String.concat ", " names)));
  Buffer.contents buf

let mfa_ascii = Dot.mfa_to_ascii
let mfa_dot mfa = Dot.mfa_to_dot mfa

let color_of_mark = function
  | Trace.Visited -> "\027[36m" (* cyan *)
  | Trace.Dead -> "\027[90m" (* gray *)
  | Trace.Skipped_dead -> "\027[90m"
  | Trace.Pruned_tax -> "\027[35m" (* magenta *)
  | Trace.In_cans -> "\027[33m" (* yellow *)
  | Trace.Answer -> "\027[32m" (* green *)

let evaluation_trace ?(color = true) trace tree =
  if not color then Trace.render trace tree
  else begin
    let buf = Buffer.create 2048 in
    Tree.iter_preorder tree (fun n ->
        let pad = String.make (2 * Tree.depth tree n) ' ' in
        let label =
          if Tree.is_text tree n then
            Printf.sprintf "%S" (Tree.text_content tree n)
          else "<" ^ Tree.name tree n ^ ">"
        in
        let marks = Trace.marks trace n in
        let tint =
          if List.mem Trace.Answer marks then color_of_mark Trace.Answer
          else if List.mem Trace.In_cans marks then color_of_mark Trace.In_cans
          else
            match marks with
            | m :: _ -> color_of_mark m
            | [] -> "\027[90m"
        in
        let status =
          match marks with
          | [] -> "-"
          | ms -> String.concat "," (List.map Trace.mark_to_string ms)
        in
        Buffer.add_string buf
          (Printf.sprintf "%4d %s%s%-30s %s\027[0m\n" n pad tint label status));
    Buffer.contents buf
  end

let tax_view idx tree =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "TAX index (descendant element types per node)\n";
  Tree.iter_preorder tree (fun n ->
      if Tree.is_element tree n then begin
        let pad = String.make (2 * Tree.depth tree n) ' ' in
        let tags = Tax.descendant_tags idx tree n in
        Buffer.add_string buf
          (Printf.sprintf "%4d %s<%s> {%s}\n" n pad (Tree.name tree n)
             (String.concat ", " tags))
      end);
  Buffer.contents buf

let answers_tree tree answers =
  let buf = Buffer.create 1024 in
  let answer_set = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace answer_set n ()) answers;
  Tree.iter_preorder tree (fun n ->
      let pad = String.make (2 * Tree.depth tree n) ' ' in
      let label =
        if Tree.is_text tree n then Printf.sprintf "%S" (Tree.text_content tree n)
        else "<" ^ Tree.name tree n ^ ">"
      in
      let marker = if Hashtbl.mem answer_set n then "  <== answer" else "" in
      Buffer.add_string buf (Printf.sprintf "%s%s%s\n" pad label marker));
  Buffer.contents buf

let stats_table stats = Fmt.str "%a" Stats.pp stats
