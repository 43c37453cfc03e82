(* Tests for the workload generators: validity, determinism, sizing. *)

module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Validator = Smoqe_xml.Validator
module Hospital = Smoqe_workload.Hospital
module Bib = Smoqe_workload.Bib
module Corp = Smoqe_workload.Corp
module Random_dtd = Smoqe_workload.Random_dtd
module Docgen = Smoqe_workload.Docgen
module Queries = Smoqe_workload.Queries

let test_hospital_valid () =
  let t = Hospital.generate ~seed:1 ~n_patients:10 ~recursion_depth:3 () in
  match Validator.validate Hospital.dtd t with
  | Ok () -> ()
  | Error errs ->
    Alcotest.fail
      (Fmt.str "%a" Fmt.(list ~sep:sp Validator.pp_error) errs)

let test_hospital_deterministic () =
  let a = Hospital.generate ~seed:9 ~n_patients:5 ~recursion_depth:2 () in
  let b = Hospital.generate ~seed:9 ~n_patients:5 ~recursion_depth:2 () in
  Alcotest.(check bool) "same" true (Tree.equal a b);
  let c = Hospital.generate ~seed:10 ~n_patients:5 ~recursion_depth:2 () in
  Alcotest.(check bool) "different seed differs" false (Tree.equal a c)

let test_hospital_recursion_present () =
  let t = Hospital.generate ~seed:2 ~n_patients:20 ~recursion_depth:4 () in
  Alcotest.(check bool) "has parent chains" true
    (Tree.id_of_tag t "parent" <> None)

let test_bib_valid () =
  let t = Bib.generate ~seed:1 ~n_books:6 ~section_depth:3 () in
  match Validator.validate Bib.dtd t with
  | Ok () -> ()
  | Error errs ->
    Alcotest.fail (Fmt.str "%a" Fmt.(list ~sep:sp Validator.pp_error) errs)

(* The E3/E9 document: bench output pins its node count. *)
let test_corp_valid () =
  let t = Corp.generate ~seed:13 ~n_departments:60 ~section_size:120 () in
  Alcotest.(check int) "E3 document size" 53_753 (Tree.n_nodes t);
  match Validator.validate Corp.dtd t with
  | Ok () -> ()
  | Error errs ->
    Alcotest.fail (Fmt.str "%a" Fmt.(list ~sep:sp Validator.pp_error) errs)

let test_corp_deterministic () =
  let gen seed = Corp.generate ~seed ~n_departments:8 ~section_size:5 () in
  Alcotest.(check bool) "same" true (Tree.equal (gen 13) (gen 13));
  Alcotest.(check bool) "different seed differs" false
    (Tree.equal (gen 13) (gen 14))

let test_random_dtd_wellformed () =
  for seed = 0 to 20 do
    let dtd = Random_dtd.generate ~seed ~n_types:6 ~recursion:(seed mod 2 = 0) () in
    Alcotest.(check bool) "root declared" true (Dtd.content dtd (Dtd.root dtd) <> None);
    (* all types expandable *)
    List.iter
      (fun name ->
        match Docgen.min_depth_of_type dtd name with
        | Some _ -> ()
        | None -> Alcotest.fail (Printf.sprintf "seed %d: %s unexpandable" seed name))
      (Dtd.reachable dtd)
  done

let test_docgen_valid_against_dtd () =
  for seed = 0 to 20 do
    let dtd = Random_dtd.generate ~seed ~n_types:5 ~recursion:true () in
    let t = Docgen.generate ~seed:(seed + 100) ~max_depth:8 ~fanout:2 dtd in
    match Validator.validate dtd t with
    | Ok () -> ()
    | Error errs ->
      Alcotest.fail
        (Fmt.str "seed %d: %a" seed Fmt.(list ~sep:sp Validator.pp_error) errs)
  done

let test_docgen_depth_bounded () =
  let dtd = Random_dtd.generate ~seed:4 ~n_types:4 ~recursion:true () in
  let t = Docgen.generate ~seed:8 ~max_depth:6 ~fanout:2 dtd in
  let max_depth = Tree.fold_preorder t ~init:0 ~f:(fun m n -> max m (Tree.depth t n)) in
  Alcotest.(check bool)
    (Printf.sprintf "depth %d bounded" max_depth)
    true (max_depth <= 16)

let test_docgen_no_finite_expansion () =
  let dtd =
    Dtd.create ~root:"a" [ ("a", Dtd.Children (Dtd.Name "b"));
                           ("b", Dtd.Children (Dtd.Name "a")) ]
  in
  match Docgen.generate dtd with
  | exception Docgen.No_finite_expansion _ -> ()
  | _ -> Alcotest.fail "expected No_finite_expansion"

let test_generate_sized () =
  let t =
    Docgen.generate_sized ~seed:3 ~target_nodes:2000 Hospital.dtd
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d nodes" (Tree.n_nodes t))
    true
    (Tree.n_nodes t >= 1000)

let test_queries_parse () =
  Alcotest.(check int) "eight queries" 8 (List.length Queries.parsed);
  List.iter
    (fun (name, text) ->
      match Smoqe_rxpath.Parser.path_of_string text with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "%s: %s" name msg))
    (Queries.suite @ Queries.view_suite)

let test_queries_nonempty_on_workload () =
  (* The benchmark suite must exercise real work: each query finds at least
     one answer on a reasonably sized document. *)
  let t = Hospital.generate ~seed:123 ~n_patients:60 ~recursion_depth:3 () in
  List.iter
    (fun (name, q) ->
      let n = List.length (Smoqe_rxpath.Semantics.answer_list t q) in
      if n = 0 then Alcotest.fail (Printf.sprintf "%s finds nothing" name))
    Queries.parsed

let () =
  Alcotest.run "smoqe_workload"
    [
      ( "hospital",
        [
          Alcotest.test_case "valid" `Quick test_hospital_valid;
          Alcotest.test_case "deterministic" `Quick test_hospital_deterministic;
          Alcotest.test_case "recursion" `Quick test_hospital_recursion_present;
        ] );
      ("bib", [ Alcotest.test_case "valid" `Quick test_bib_valid ]);
      ( "corp",
        [
          Alcotest.test_case "valid" `Quick test_corp_valid;
          Alcotest.test_case "deterministic" `Quick test_corp_deterministic;
        ] );
      ( "random",
        [
          Alcotest.test_case "dtd wellformed" `Quick test_random_dtd_wellformed;
          Alcotest.test_case "docs valid" `Quick test_docgen_valid_against_dtd;
          Alcotest.test_case "depth bounded" `Quick test_docgen_depth_bounded;
          Alcotest.test_case "no finite expansion" `Quick
            test_docgen_no_finite_expansion;
          Alcotest.test_case "sized" `Quick test_generate_sized;
        ] );
      ( "queries",
        [
          Alcotest.test_case "parse" `Quick test_queries_parse;
          Alcotest.test_case "nonempty" `Quick test_queries_nonempty_on_workload;
        ] );
    ]
