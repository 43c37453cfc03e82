(* Recursive virtual views — the case SMOQE exists for.

   The bibliography schema nests sections inside sections; hiding the
   review plumbing and embargoed sections produces a view whose extraction
   paths need Kleene closure, and whose queries XPath alone could not be
   rewritten for (paper §1).

   Run with: dune exec examples/recursive_views.exe *)

module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Ismoqe = Smoqe.Ismoqe
module Dtd = Smoqe_xml.Dtd
module Tree = Smoqe_xml.Tree
module Pretty = Smoqe_rxpath.Pretty
module Ast = Smoqe_rxpath.Ast
module Derive = Smoqe_security.Derive
module Policy = Smoqe_security.Policy
module Bib = Smoqe_workload.Bib
module Error = Smoqe_robust.Error

let banner title = Printf.printf "\n=== %s ===\n" title

(* A policy that hides the entire section skeleton but re-grants paragraph
   access: paragraphs at ANY nesting depth are promoted to their book, so
   sigma(book, para) must traverse the hidden section* cycle — a Kleene
   star no plain XPath view definition could express. *)
let flatten_policy =
  match
    Policy.of_string Bib.dtd
      "ann(book, author) = N\n\
       ann(book, review) = N\n\
       ann(book, section) = N\n\
       ann(section, para) = Y\n"
  with
  | Ok p -> p
  | Error msg -> failwith msg

let () =
  banner "a recursive document schema";
  print_string (Ismoqe.schema_graph Bib.dtd);
  Printf.printf "recursive: %b\n" (Dtd.is_recursive Bib.dtd);

  banner "hiding a recursive region forces Kleene closure";
  let view = Derive.derive flatten_policy in
  (match Derive.sigma view ~parent:"book" ~child:"para" with
  | Some p -> Printf.printf "sigma(book, para) = %s\n" (Pretty.path_to_string p)
  | None -> failwith "para not exposed");
  print_string "\nview DTD:\n";
  print_string (Dtd.to_string (Derive.view_dtd view));

  banner "querying the flattened view";
  let doc = Bib.generate ~seed:41 ~n_books:3 ~section_depth:4 () in
  let engine =
    match Engine.of_tree ~dtd:Bib.dtd doc with
    | Ok e -> e
    | Error e -> failwith (Error.to_string e)
  in
  (match Engine.register_policy engine ~group:"readers" flatten_policy with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let reader =
    match Session.login engine (Session.Member "readers") with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  (match Session.run_robust reader "book/para" with
  | Ok o ->
    Printf.printf
      "book/para on the view reaches %d paragraphs buried at any depth\n"
      (List.length o.Engine.answers);
    let deepest =
      List.fold_left (fun m n -> max m (Tree.depth doc n)) 0 o.Engine.answers
    in
    Printf.printf "deepest paragraph sat %d levels down in the document\n"
      deepest
  | Error e -> failwith (Error.to_string e));

  banner "the embargo view (Bib.policy): conditional exposure";
  let engine2 =
    match Engine.of_tree ~dtd:Bib.dtd doc with
    | Ok e -> e
    | Error e -> failwith (Error.to_string e)
  in
  (match Engine.register_policy engine2 ~group:"public" Bib.policy with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let public =
    match Session.login engine2 (Session.Member "public") with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let count s q =
    match Session.run_robust s q with
    | Ok o -> List.length o.Engine.answers
    | Error e -> failwith (Error.to_string e)
  in
  Printf.printf "public sections: %d (internal ones: %d)\n"
    (count public "//section")
    (count public "//section[title = 'internal']");
  Printf.printf "reviewer names reachable: %d\n" (count public "//reviewer");

  banner "rewriting stays linear even for recursive views";
  let step k =
    let rec build k =
      if k = 0 then Ast.Tag "para"
      else Ast.seq (Ast.Tag "section") (build (k - 1))
    in
    build k
  in
  List.iter
    (fun k ->
      let q = step k in
      match
        Engine.rewrite_only engine2 ~group:"public"
          (Pretty.path_to_string q)
      with
      | Ok mfa ->
        Printf.printf "query size %2d -> MFA size %4d\n" (Ast.size q)
          (Smoqe_automata.Mfa.size mfa)
      | Error e -> failwith (Error.to_string e))
    [ 1; 2; 4; 8; 16 ]
