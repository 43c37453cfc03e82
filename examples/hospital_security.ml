(* The paper's running example, end to end (Fig. 3):

   1. the hospital DTD and the access-control policy S0;
   2. automatic derivation of the view specification sigma-0 and view DTD;
   3. an administrator and a researcher querying the same document —
      the researcher's queries are rewritten through the virtual view;
   4. proof that nothing the policy hides can be reached.

   Run with: dune exec examples/hospital_security.exe *)

module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Ismoqe = Smoqe.Ismoqe
module Serializer = Smoqe_xml.Serializer
module Tree = Smoqe_xml.Tree
module Derive = Smoqe_security.Derive
module Materialize = Smoqe_security.Materialize
module Hospital = Smoqe_workload.Hospital
module Error = Smoqe_robust.Error

let banner title = Printf.printf "\n=== %s ===\n" title

let () =
  banner "document schema (Fig. 3a)";
  print_string (Ismoqe.schema_graph Hospital.dtd);

  banner "policy S0 and derived view (Fig. 3b-d)";
  let view = Derive.derive Hospital.policy in
  print_string (Ismoqe.view_specification view);

  (* A hospital with patients, some treated for autism. *)
  let doc = Hospital.generate ~seed:2006 ~n_patients:8 ~recursion_depth:2 () in
  let engine =
    match Engine.of_tree ~dtd:Hospital.dtd doc with
    | Ok e -> e
    | Error e -> failwith (Error.to_string e)
  in
  (match Engine.register_policy engine ~group:"researchers" Hospital.policy with
  | Ok () -> ()
  | Error msg -> failwith msg);

  banner "two sessions, one document";
  let admin =
    match Session.login engine Session.Admin with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let researcher =
    match Session.login engine (Session.Member "researchers") with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let count session query =
    match Session.run_robust session query with
    | Ok o -> List.length o.Engine.answers
    | Error e -> failwith (query ^ ": " ^ Error.to_string e)
  in
  Printf.printf "admin       //pname      -> %d patient names\n"
    (count admin "//pname");
  Printf.printf "researcher  //pname      -> %d  (names are hidden)\n"
    (count researcher "//pname");
  Printf.printf "admin       //medication -> %d medications\n"
    (count admin "//medication");
  Printf.printf
    "researcher  //medication -> %d  (only autism patients' records)\n"
    (count researcher "//medication");

  banner "a view query and its rewriting (Fig. 4)";
  let q = "patient[treatment/medication = 'autism']/treatment/medication" in
  (match Engine.rewrite_only engine ~group:"researchers" q with
  | Ok mfa ->
    Printf.printf "view query: %s\nrewritten MFA: %d states, %d transitions\n"
      q
      (Smoqe_automata.Mfa.n_states mfa)
      (Smoqe_automata.Mfa.n_transitions mfa)
  | Error e -> failwith (Error.to_string e));
  (match Session.run_robust researcher q with
  | Ok o ->
    Printf.printf "answers (no view was materialized):\n";
    List.iter
      (fun n ->
        Printf.printf "  node %d: %s\n" n
          (Serializer.subtree_to_string ~indent:false doc n))
      o.Engine.answers
  | Error e -> failwith (Error.to_string e));

  banner "the rewriting contract: Q'(T) = Q(V(T))";
  let parse s =
    match Smoqe_rxpath.Parser.path_of_string s with
    | Ok p -> p
    | Error m -> failwith m
  in
  let through_engine =
    match Session.run_robust researcher q with
    | Ok o -> o.Engine.answers
    | Error e -> failwith (Error.to_string e)
  in
  let through_materialization = Materialize.doc_answers view doc (parse q) in
  Printf.printf "virtual = materialized: %b (%d answers)\n"
    (List.sort_uniq compare through_engine = through_materialization)
    (List.length through_materialization);

  banner "non-disclosure";
  let m = Materialize.materialize view doc in
  let leaked tag = Tree.id_of_tag m.Materialize.tree tag <> None in
  List.iter
    (fun tag -> Printf.printf "view contains <%s>? %b\n" tag (leaked tag))
    [ "pname"; "visit"; "date"; "test"; "medication" ]
