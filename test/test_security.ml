(* Tests for security views: policy parsing, derivation of the paper's
   Fig. 3 example, view-DTD generation, materialization, and
   non-disclosure. *)

module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Validator = Smoqe_xml.Validator
module Ast = Smoqe_rxpath.Ast
module Rx_parser = Smoqe_rxpath.Parser
module Pretty = Smoqe_rxpath.Pretty
module Semantics = Smoqe_rxpath.Semantics
module Policy = Smoqe_security.Policy
module Derive = Smoqe_security.Derive
module Materialize = Smoqe_security.Materialize
module Exposure = Smoqe_security.Exposure
module Random_dtd = Smoqe_workload.Random_dtd
module Docgen = Smoqe_workload.Docgen
module Hospital = Smoqe_workload.Hospital
module Bib = Smoqe_workload.Bib

let parse s =
  match Rx_parser.path_of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.fail (Printf.sprintf "parse %S: %s" s msg)

let sigma_string view ~parent ~child =
  match Derive.sigma view ~parent ~child with
  | None -> "-"
  | Some p -> Pretty.path_to_string p

(* --- Policy ------------------------------------------------------------- *)

let test_policy_parse_roundtrip () =
  let p = Hospital.policy in
  let printed = Policy.to_string p in
  match Policy.of_string Hospital.dtd printed with
  | Error msg -> Alcotest.fail msg
  | Ok p' ->
    Alcotest.(check int) "same count"
      (List.length (Policy.annotations p))
      (List.length (Policy.annotations p'))

let test_policy_bad_edge () =
  match Policy.of_string Hospital.dtd "ann(patient, nothere) = N" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-edge"

let test_policy_bad_syntax () =
  List.iter
    (fun s ->
      match Policy.of_string Hospital.dtd s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s))
    [
      "ann(patient pname) = N";
      "ann(patient, pname) = X";
      "ann(patient, pname) = [not a query[";
      "garbage";
    ]

let test_policy_comments_and_blanks () =
  match
    Policy.of_string Hospital.dtd
      "# a comment\n\nann(patient, pname) = N\n   \n"
  with
  | Ok p -> Alcotest.(check int) "one annotation" 1 (List.length (Policy.annotations p))
  | Error msg -> Alcotest.fail msg

(* --- Derivation: the paper's Fig. 3 ------------------------------------- *)

let view = lazy (Derive.derive Hospital.policy)

let test_fig3_sigma () =
  let v = Lazy.force view in
  Alcotest.(check string) "sigma(hospital, patient)"
    "patient[visit/treatment/medication = 'autism']"
    (sigma_string v ~parent:"hospital" ~child:"patient");
  Alcotest.(check string) "sigma(patient, treatment)"
    "visit/treatment[medication]"
    (sigma_string v ~parent:"patient" ~child:"treatment");
  Alcotest.(check string) "sigma(patient, parent)" "parent"
    (sigma_string v ~parent:"patient" ~child:"parent");
  Alcotest.(check string) "sigma(parent, patient)" "patient"
    (sigma_string v ~parent:"parent" ~child:"patient");
  Alcotest.(check string) "sigma(treatment, medication)" "medication"
    (sigma_string v ~parent:"treatment" ~child:"medication")

let test_fig3_hidden_not_exposed () =
  let v = Lazy.force view in
  List.iter
    (fun (parent, child) ->
      Alcotest.(check string)
        (Printf.sprintf "sigma(%s, %s) empty" parent child)
        "-"
        (sigma_string v ~parent ~child))
    [
      ("patient", "pname");
      ("patient", "visit");
      ("patient", "date");
      ("patient", "test");
      ("treatment", "test");
      ("hospital", "visit");
    ]

let test_fig3_view_dtd () =
  let v = Lazy.force view in
  let vd = Derive.view_dtd v in
  Alcotest.(check string) "root" "hospital" (Dtd.root vd);
  Alcotest.(check (list string)) "visible types"
    [ "hospital"; "patient"; "treatment"; "parent"; "medication" ]
    (Dtd.element_names vd |> List.sort_uniq compare |> fun l ->
     List.filter (fun t -> List.mem t l)
       [ "hospital"; "patient"; "treatment"; "parent"; "medication" ]);
  (match Dtd.content vd "patient" with
  | Some (Dtd.Children r) ->
    Alcotest.(check string) "patient content" "treatment*, parent*"
      (Fmt.str "%a" Dtd.pp_regex r)
  | _ -> Alcotest.fail "patient content missing");
  (match Dtd.content vd "hospital" with
  | Some (Dtd.Children (Dtd.Star (Dtd.Name "patient"))) -> ()
  | _ -> Alcotest.fail "hospital content wrong");
  Alcotest.(check bool) "no approximation needed" true
    (Derive.approximated v = []);
  Alcotest.(check (list string)) "patient exposes in schema order"
    [ "treatment"; "parent" ]
    (Derive.exposed_children v "patient")

let test_view_dtd_recursive () =
  let v = Lazy.force view in
  Alcotest.(check bool) "view DTD recursive" true
    (Dtd.is_recursive (Derive.view_dtd v))

(* --- Derivation through recursive hidden regions ------------------------- *)

let test_hidden_cycle_kleene () =
  (* r -> a; a -> b?, leaf?; b -> a?, leaf2?; hide a and b entirely:
     visible leaves are promoted through the hidden cycle a/b, so sigma
     must contain a Kleene star. *)
  let dtd =
    Dtd.create ~root:"r"
      [
        ("r", Dtd.Children (Dtd.Opt (Dtd.Name "a")));
        ("a", Dtd.Children (Dtd.Seq (Dtd.Opt (Dtd.Name "b"), Dtd.Opt (Dtd.Name "leaf"))));
        ("b", Dtd.Children (Dtd.Seq (Dtd.Opt (Dtd.Name "a"), Dtd.Opt (Dtd.Name "leaf2"))));
        ("leaf", Dtd.Mixed []);
        ("leaf2", Dtd.Mixed []);
      ]
  in
  let policy =
    (* a and b are hidden (the unannotated a/b cycle inherits hiddenness);
       the leaves are explicitly re-granted. *)
    Policy.create dtd
      [
        (("r", "a"), Policy.Deny);
        (("a", "leaf"), Policy.Allow);
        (("b", "leaf2"), Policy.Allow);
      ]
  in
  let v = Derive.derive policy in
  (match Derive.sigma v ~parent:"r" ~child:"leaf" with
  | None -> Alcotest.fail "leaf not exposed"
  | Some p ->
    let rec has_star = function
      | Ast.Star _ -> true
      | Ast.Seq (a, b) | Ast.Union (a, b) -> has_star a || has_star b
      | Ast.Filter (a, _) -> has_star a
      | Ast.Self | Ast.Tag _ | Ast.Wildcard | Ast.Text -> false
    in
    Alcotest.(check bool)
      (Printf.sprintf "kleene star in %s" (Pretty.path_to_string p))
      true (has_star p));
  (* the promoted-leaf production collapses r's content *)
  let vd = Derive.view_dtd v in
  Alcotest.(check bool) "leaf2 exposed too" true
    (Derive.sigma v ~parent:"r" ~child:"leaf2" <> None);
  Alcotest.(check bool) "a gone from the view" true (Dtd.content vd "a" = None)

let test_deny_without_regrant_hides_subtree () =
  let v = Lazy.force view in
  (* test elements are denied and nothing below them is re-granted *)
  Alcotest.(check bool) "test not visible" true
    (not (List.mem "test" (Derive.visible_types v)))

(* --- Manual view specifications ------------------------------------------- *)

module View_spec = Smoqe_security.View_spec

let fig3_spec_text =
  "# Fig. 3(c), written by hand\n\
   sigma(hospital, patient) = patient[visit/treatment/medication = 'autism']\n\
   sigma(patient, treatment) = visit/treatment[medication]\n\
   sigma(patient, parent) = parent\n\
   sigma(parent, patient) = patient\n\
   sigma(treatment, medication) = medication\n"

let fig3_view_dtd =
  Dtd.create ~root:"hospital"
    [
      ("hospital", Dtd.Children (Dtd.Star (Dtd.Name "patient")));
      ( "patient",
        Dtd.Children
          (Dtd.Seq (Dtd.Star (Dtd.Name "treatment"), Dtd.Star (Dtd.Name "parent")))
      );
      ("treatment", Dtd.Children (Dtd.Opt (Dtd.Name "medication")));
      ("parent", Dtd.Children (Dtd.Name "patient"));
      ("medication", Dtd.Mixed []);
    ]

let test_manual_view_matches_derived () =
  let manual =
    match
      View_spec.of_string ~doc_dtd:Hospital.dtd ~view_dtd:fig3_view_dtd
        fig3_spec_text
    with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "no policy attached" true
    (Derive.policy manual = None);
  let derived = Lazy.force view in
  let doc = Hospital.generate ~seed:91 ~n_patients:8 ~recursion_depth:2 () in
  (* Same specification -> same materialized view and same query answers. *)
  let m1 = Materialize.materialize manual doc in
  let m2 = Materialize.materialize derived doc in
  Alcotest.(check bool) "materializations equal" true
    (Tree.equal m1.Materialize.tree m2.Materialize.tree);
  List.iter
    (fun q ->
      Alcotest.(check (list int)) q
        (Materialize.doc_answers derived doc (parse q))
        (Materialize.doc_answers manual doc (parse q)))
    [ "patient/treatment/medication"; "(patient/parent)*/patient" ]

let test_manual_view_rejections () =
  let expect_err ~view_dtd text msg_part =
    match View_spec.of_string ~doc_dtd:Hospital.dtd ~view_dtd text with
    | Error msg ->
      let contains =
        let nl = String.length msg_part and hl = String.length msg in
        let rec go i =
          (i + nl <= hl) && (String.sub msg i nl = msg_part || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (msg_part ^ " in " ^ msg) true contains
    | Ok _ -> Alcotest.fail ("accepted: " ^ text)
  in
  (* missing annotation *)
  expect_err ~view_dtd:fig3_view_dtd
    "sigma(hospital, patient) = patient\n" "no sigma annotation";
  (* annotates a non-edge *)
  expect_err ~view_dtd:fig3_view_dtd
    (fig3_spec_text ^ "sigma(medication, parent) = parent\n")
    "non-edge";
  (* wrong target label *)
  expect_err ~view_dtd:fig3_view_dtd
    (Str_replace.replace fig3_spec_text
       "sigma(parent, patient) = patient"
       "sigma(parent, patient) = patient/pname")
    "labeled";
  (* undeclared document tag *)
  expect_err ~view_dtd:fig3_view_dtd
    (Str_replace.replace fig3_spec_text
       "sigma(parent, patient) = patient"
       "sigma(parent, patient) = zebra/patient")
    "undeclared"

let test_manual_view_query_through_engine () =
  let manual =
    match
      View_spec.of_string ~doc_dtd:Hospital.dtd ~view_dtd:fig3_view_dtd
        fig3_spec_text
    with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  let doc = Hospital.generate ~seed:92 ~n_patients:8 ~recursion_depth:2 () in
  let q = parse "patient/treatment/medication" in
  let mfa = Smoqe_rewrite.Rewriter.rewrite manual q in
  let got =
    (Smoqe_hype.Eval_dom.run mfa doc).Smoqe_hype.Eval_dom.answers
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "manual view rewriting"
    (Materialize.doc_answers manual doc q)
    got

(* --- Materialization ------------------------------------------------------ *)

let hospital_doc =
  lazy
    (Smoqe_xml.Parser.tree_of_string
       "<hospital>\
        <patient><pname>Ann</pname>\
        <visit><treatment><medication>autism</medication></treatment><date>1</date></visit>\
        <visit><treatment><medication>headache</medication></treatment><date>2</date></visit>\
        <parent><patient><pname>Granny</pname>\
        <visit><treatment><medication>autism</medication></treatment><date>3</date></visit>\
        </patient></parent>\
        </patient>\
        <patient><pname>Bob</pname>\
        <visit><treatment><test>blood</test></treatment><date>4</date></visit>\
        </patient>\
        </hospital>")

let test_materialize_fig3 () =
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  let m = Materialize.materialize v doc in
  let vt = m.Materialize.tree in
  (* Bob took no autism medication: only Ann's record is exposed. *)
  Alcotest.(check int) "one top patient" 1
    (List.length (Semantics.answer_list vt (parse "patient")));
  (* Ann's record exposes her two medications, flattened through visits. *)
  Alcotest.(check int) "medications under patient" 2
    (List.length (Semantics.answer_list vt (parse "patient/treatment/medication")));
  (* Granny is exposed under parent (recursion), with her medication. *)
  Alcotest.(check int) "grandparent medication" 1
    (List.length
       (Semantics.answer_list vt
          (parse "patient/parent/patient/treatment/medication")))

let test_materialized_view_validates () =
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  let m = Materialize.materialize v doc in
  match Validator.validate (Derive.view_dtd v) m.Materialize.tree with
  | Ok () -> ()
  | Error errs ->
    Alcotest.fail
      (Fmt.str "view invalid: %a" Fmt.(list ~sep:sp Validator.pp_error) errs)

let test_materialize_no_disclosure () =
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  let m = Materialize.materialize v doc in
  let vt = m.Materialize.tree in
  (* No hidden element type may appear in the view... *)
  List.iter
    (fun hidden ->
      Alcotest.(check (option int))
        (hidden ^ " absent") None
        (Tree.id_of_tag vt hidden))
    [ "pname"; "visit"; "date"; "test" ];
  (* ...and no text of a hidden node may leak. *)
  let all_text = Tree.descendant_or_self_texts vt Tree.root in
  List.iter
    (fun secret ->
      let contains =
        let nl = String.length secret and hl = String.length all_text in
        let rec go i =
          i + nl <= hl && (String.sub all_text i nl = secret || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (secret ^ " does not leak") false contains)
    [ "Ann"; "Bob"; "Granny"; "blood" ]

let test_materialize_provenance () =
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  let m = Materialize.materialize v doc in
  let vt = m.Materialize.tree in
  Alcotest.(check int) "provenance covers the view"
    (Tree.n_nodes vt)
    (Array.length m.Materialize.provenance);
  (* every view node maps to a document node with the same tag/text *)
  Tree.iter_preorder vt (fun n ->
      let d = m.Materialize.provenance.(n) in
      if Tree.is_text vt n then
        Alcotest.(check string) "text preserved"
          (Tree.text_content doc d) (Tree.text_content vt n)
      else
        Alcotest.(check string) "tag preserved" (Tree.name doc d)
          (Tree.name vt n))

(* The random draws of the exposure checks, built the way the oracle's
   property cases build them (random DTD, conditional policy, generated
   document); [None] when the DTD has no finite document or the policy
   derivation is unsupported. *)
let exposure_draw seed =
  let dtd =
    Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
      ~recursion:(seed mod 2 = 0) ()
  in
  match
    ( Derive.derive (Random_dtd.random_policy ~seed:((seed * 3) + 1) dtd),
      Docgen.generate ~seed:((seed * 5) + 2) ~max_depth:8 ~fanout:2 dtd )
  with
  | exception (Derive.Unsupported _ | Docgen.No_finite_expansion _) -> None
  | view, doc -> Some (view, doc)

(* Run [check] on the first 2,000 draws that exist. *)
let on_draws check =
  let rec go seed compared =
    if compared < 2000 then
      match exposure_draw seed with
      | None -> go (seed + 1) compared
      | Some (view, doc) ->
        check seed view doc;
        go (seed + 1) (compared + 1)
  in
  go 1 0

(* The exposure bitmap and materialization share one σ-walk; this pins
   that the bitmap marks exactly the provenance ids. *)
let test_exposure_is_provenance () =
  on_draws (fun seed view doc ->
      let e = Exposure.compute view doc in
      let prov = Hashtbl.create 64 in
      Array.iter
        (fun n -> Hashtbl.replace prov n ())
        (Materialize.materialize view doc).Materialize.provenance;
      for n = 0 to Tree.n_nodes doc - 1 do
        if Exposure.mem e n <> Hashtbl.mem prov n then
          Alcotest.failf "seed %d: node %d exposed=%b, in provenance=%b" seed
            n (Exposure.mem e n) (Hashtbl.mem prov n)
      done)

(* The restricted σ-walk is the whole-document one cut to its range: on
   a subtree, a single node, an arbitrary id range and an empty one. *)
let test_region_is_compute () =
  on_draws (fun seed view doc ->
      let full = Exposure.compute view doc in
      let n = Tree.n_nodes doc in
      let rng = Random.State.make [| seed; 0x7e9 |] in
      let a = Random.State.int rng n
      and b = Random.State.int rng n
      and c = Random.State.int rng n in
      List.iter
        (fun (lo, hi) ->
          let r = Exposure.region view doc ~lo ~hi in
          for i = 0 to n - 1 do
            let want = i >= lo && i < hi && Exposure.mem full i in
            if Exposure.mem r i <> want then
              Alcotest.failf "seed %d: region [%d, %d) says node %d exposed=%b"
                seed lo hi i (not want)
          done)
        [ (a, Tree.subtree_end doc a); (b, b + 1);
          (min b c, max b c + 1); (c, c) ])

let test_materialize_bib () =
  let v = Derive.derive Bib.policy in
  let doc = Bib.generate ~seed:3 ~n_books:4 ~section_depth:3 () in
  let m = Materialize.materialize v doc in
  let vt = m.Materialize.tree in
  (match Validator.validate (Derive.view_dtd v) vt with
  | Ok () -> ()
  | Error errs ->
    Alcotest.fail
      (Fmt.str "bib view invalid: %a" Fmt.(list ~sep:sp Validator.pp_error) errs));
  Alcotest.(check (option int)) "authors hidden" None (Tree.id_of_tag vt "author");
  Alcotest.(check (option int)) "reviewers hidden" None
    (Tree.id_of_tag vt "reviewer");
  (* no exposed section may be titled 'internal' *)
  let internal =
    Semantics.answer_list vt (parse "//section[title = 'internal']")
  in
  Alcotest.(check (list int)) "no internal sections" [] internal

(* --- View queries respect the policy (end to end) ------------------------ *)

let test_view_answers_subset_of_visible () =
  let v = Lazy.force view in
  let doc = Lazy.force hospital_doc in
  (* Whatever we ask of the view, answers map to document nodes that the
     policy exposes: never a test, pname, visit or date node. *)
  List.iter
    (fun q ->
      let answers = Materialize.doc_answers v doc (parse q) in
      List.iter
        (fun d ->
          let tag = Tree.name doc d in
          Alcotest.(check bool)
            (Printf.sprintf "%s answered %s" q tag)
            false
            (List.mem tag [ "pname"; "visit"; "date"; "test" ]))
        answers)
    [ "//*"; "//medication"; "patient/treatment"; "(patient/parent)*/patient" ]

let () =
  Alcotest.run "smoqe_security"
    [
      ( "policy",
        [
          Alcotest.test_case "print/parse" `Quick test_policy_parse_roundtrip;
          Alcotest.test_case "bad edge" `Quick test_policy_bad_edge;
          Alcotest.test_case "bad syntax" `Quick test_policy_bad_syntax;
          Alcotest.test_case "comments" `Quick test_policy_comments_and_blanks;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "sigma" `Quick test_fig3_sigma;
          Alcotest.test_case "hidden edges" `Quick test_fig3_hidden_not_exposed;
          Alcotest.test_case "view DTD" `Quick test_fig3_view_dtd;
          Alcotest.test_case "view DTD recursive" `Quick test_view_dtd_recursive;
        ] );
      ( "recursion",
        [
          Alcotest.test_case "hidden cycle kleene" `Quick test_hidden_cycle_kleene;
          Alcotest.test_case "deny hides subtree" `Quick
            test_deny_without_regrant_hides_subtree;
        ] );
      ( "manual views",
        [
          Alcotest.test_case "matches derived" `Quick
            test_manual_view_matches_derived;
          Alcotest.test_case "rejections" `Quick test_manual_view_rejections;
          Alcotest.test_case "through rewriter" `Quick
            test_manual_view_query_through_engine;
        ] );
      ( "materialize",
        [
          Alcotest.test_case "fig3 content" `Quick test_materialize_fig3;
          Alcotest.test_case "validates" `Quick test_materialized_view_validates;
          Alcotest.test_case "no disclosure" `Quick test_materialize_no_disclosure;
          Alcotest.test_case "provenance" `Quick test_materialize_provenance;
          Alcotest.test_case "bib domain" `Quick test_materialize_bib;
          Alcotest.test_case "exposure = provenance (random draws)" `Quick
            test_exposure_is_provenance;
          Alcotest.test_case "region = compute on its range (random draws)"
            `Quick test_region_is_compute;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "answers stay visible" `Quick
            test_view_answers_subset_of_visible;
        ] );
    ]
