(* Tests for the region index and the structural-join baseline. *)

module Tree = Smoqe_xml.Tree
module Xml_parser = Smoqe_xml.Parser
module Serializer = Smoqe_xml.Serializer
module Ast = Smoqe_rxpath.Ast
module Rx_parser = Smoqe_rxpath.Parser
module Semantics = Smoqe_rxpath.Semantics
module Region = Smoqe_tax.Region
module Sj = Smoqe_baseline.Structural_join
module Hospital = Smoqe_workload.Hospital

let parse s =
  match Rx_parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let doc s = Xml_parser.tree_of_string s

(* --- Region labels ------------------------------------------------------- *)

let test_region_labels () =
  let t = doc "<r><a><b>x</b></a><a/></r>" in
  let idx = Region.build t in
  (* pre-order: r=0 a=1 b=2 x=3 a=4 *)
  Alcotest.(check bool) "r anc a" true (Region.is_ancestor idx ~anc:0 ~desc:1);
  Alcotest.(check bool) "r anc x" true (Region.is_ancestor idx ~anc:0 ~desc:3);
  Alcotest.(check bool) "a1 anc b" true (Region.is_ancestor idx ~anc:1 ~desc:2);
  Alcotest.(check bool) "a1 not anc a2" false
    (Region.is_ancestor idx ~anc:1 ~desc:4);
  Alcotest.(check bool) "not reflexive" false
    (Region.is_ancestor idx ~anc:1 ~desc:1);
  Alcotest.(check bool) "b not anc a" false
    (Region.is_ancestor idx ~anc:2 ~desc:1);
  Alcotest.(check int) "level of b" 2 (Region.level idx 2);
  Alcotest.(check (array int)) "a list" [| 1; 4 |]
    (Region.nodes_with_tag idx "a");
  Alcotest.(check (array int)) "text list" [| 3 |] (Region.text_nodes idx);
  Alcotest.(check (array int)) "unknown tag" [||]
    (Region.nodes_with_tag idx "zzz")

let test_region_post_order () =
  let t = doc "<r><a><b>x</b></a><c/></r>" in
  let idx = Region.build t in
  (* post-order ranks: x < b < a < c < r *)
  Alcotest.(check bool) "x before b" true (Region.post idx 3 < Region.post idx 2);
  Alcotest.(check bool) "b before a" true (Region.post idx 2 < Region.post idx 1);
  Alcotest.(check bool) "c before r" true (Region.post idx 4 < Region.post idx 0);
  Alcotest.(check bool) "a before c" true (Region.post idx 1 < Region.post idx 4)

(* --- Planning ------------------------------------------------------------- *)

let test_plan_fragment () =
  (match Sj.plan (parse "a/b") with
  | Ok [ Sj.Child "a"; Sj.Child "b" ] -> ()
  | _ -> Alcotest.fail "a/b");
  (match Sj.plan (parse "//a/b//c") with
  | Ok [ Sj.Desc "a"; Sj.Child "b"; Sj.Desc "c" ] -> ()
  | _ -> Alcotest.fail "//a/b//c");
  (match Sj.plan (parse "a//text()") with
  | Ok [ Sj.Child "a"; Sj.Desc_text ] -> ()
  | _ -> Alcotest.fail "a//text()")

let test_plan_rejections () =
  List.iter
    (fun q ->
      match Sj.plan (parse q) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (q ^ " accepted"))
    [
      "a[b]/c" (* qualifier *);
      "(a/b)*/c" (* closure *);
      "a | b" (* union *);
      "*/a" (* wildcard *);
      "." (* self *);
      "a/text()/b" (* text mid-path *);
    ]

(* --- Execution ------------------------------------------------------------ *)

let check_query t q =
  let idx = Region.build t in
  match Sj.run idx t (parse q) with
  | Error msg -> Alcotest.fail (q ^ ": " ^ msg)
  | Ok r ->
    Alcotest.(check (list int)) q (Semantics.answer_list t (parse q))
      r.Sj.answers

let test_run_matches_oracle () =
  let t = Hospital.generate ~seed:44 ~n_patients:10 ~recursion_depth:3 () in
  List.iter (check_query t)
    [
      "patient/pname";
      "//medication";
      "//patient/pname";
      "patient//medication";
      "//visit/treatment/test";
      "//pname/text()";
      "patient/parent//date";
      "//zebra";
    ]

let test_run_work_is_list_bounded () =
  (* The join touches inverted-list entries, not the whole document. *)
  let t = Hospital.generate ~seed:45 ~n_patients:200 ~recursion_depth:2 () in
  let idx = Region.build t in
  match Sj.run idx t (parse "//test") with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "scanned %d of %d nodes" r.Sj.list_items_scanned
         (Tree.n_nodes t))
      true
      (r.Sj.list_items_scanned * 10 < Tree.n_nodes t)

(* --- Property: fragment queries match the oracle --------------------------- *)

let tag_gen = QCheck2.Gen.oneofl [ "a"; "b"; "c" ]

let steps_gen =
  QCheck2.Gen.(
    list_size (int_range 1 5)
      (pair (oneofl [ `Child; `Desc ]) tag_gen))

let path_of_steps steps =
  List.fold_left
    (fun acc (axis, tag) ->
      let step =
        match axis with
        | `Child -> Ast.Tag tag
        | `Desc -> Ast.seq Ast.descendant_or_self (Ast.Tag tag)
      in
      match acc with None -> Some step | Some p -> Some (Ast.seq p step))
    None steps
  |> Option.get

let source_gen =
  QCheck2.Gen.(
    sized_size (int_bound 5)
    @@ fix (fun self n ->
           if n = 0 then
             oneof
               [
                 map (fun s -> Tree.T s) (oneofl [ "x"; "y" ]);
                 map (fun t -> Tree.E (t, [], [])) tag_gen;
               ]
           else
             map2
               (fun t kids -> Tree.E (t, [], kids))
               tag_gen
               (list_size (int_bound 3) (self (n / 2)))))

let doc_gen =
  QCheck2.Gen.(
    map
      (fun kids -> Tree.of_source (Tree.E ("r", [], kids)))
      (list_size (int_bound 4) source_gen))

let prop_fragment_equals_oracle =
  QCheck2.Test.make ~count:500 ~name:"structural join = oracle on fragment"
    ~print:(fun (t, steps) ->
      Printf.sprintf "doc: %s\nquery: %s"
        (Serializer.to_string ~indent:false t)
        (Smoqe_rxpath.Pretty.path_to_string (path_of_steps steps)))
    QCheck2.Gen.(pair doc_gen steps_gen)
    (fun (t, steps) ->
      let q = path_of_steps steps in
      let idx = Region.build t in
      match Sj.run idx t q with
      | Error _ -> false
      | Ok r -> r.Sj.answers = Semantics.answer_list t q)

let qsuite = Qcheck_seed.to_alcotest [ prop_fragment_equals_oracle ]

let () =
  Alcotest.run "smoqe_structural_join"
    [
      ( "region",
        [
          Alcotest.test_case "labels" `Quick test_region_labels;
          Alcotest.test_case "post order" `Quick test_region_post_order;
        ] );
      ( "plan",
        [
          Alcotest.test_case "fragment" `Quick test_plan_fragment;
          Alcotest.test_case "rejections" `Quick test_plan_rejections;
        ] );
      ( "run",
        [
          Alcotest.test_case "oracle" `Quick test_run_matches_oracle;
          Alcotest.test_case "work bound" `Quick test_run_work_is_list_bounded;
        ] );
      ("properties", qsuite);
    ]
