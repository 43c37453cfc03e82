(* Tests for the XML substrate: Tree, Pull, Parser, Serializer, Dtd,
   Dtd_parser, Validator. *)

module Tree = Smoqe_xml.Tree
module Pull = Smoqe_xml.Pull
module Parser = Smoqe_xml.Parser
module Serializer = Smoqe_xml.Serializer
module Dtd = Smoqe_xml.Dtd
module Dtd_parser = Smoqe_xml.Dtd_parser
module Validator = Smoqe_xml.Validator

let sample_source =
  Tree.E
    ( "hospital",
      [],
      [
        Tree.E
          ( "patient",
            [ ("id", "p1") ],
            [
              Tree.E ("pname", [], [ Tree.T "Ann" ]);
              Tree.E
                ( "visit",
                  [],
                  [
                    Tree.E
                      ( "treatment",
                        [],
                        [ Tree.E ("medication", [], [ Tree.T "autism" ]) ] );
                    Tree.E ("date", [], [ Tree.T "2006-01-02" ]);
                  ] );
            ] );
        Tree.E
          ( "patient",
            [ ("id", "p2") ],
            [ Tree.E ("pname", [], [ Tree.T "Bob" ]) ] );
      ] )

let sample () = Tree.of_source sample_source

(* --- Tree ------------------------------------------------------------ *)

let test_tree_counts () =
  let t = sample () in
  (* hospital(0) patient(1) pname(2) Ann(3) visit(4) treatment(5)
     medication(6) autism(7) date(8) text(9) patient(10) pname(11)
     Bob(12) — 13 nodes. *)
  Alcotest.(check int) "node count" 13 (Tree.n_nodes t);
  Alcotest.(check string) "root name" "hospital" (Tree.name t Tree.root);
  Alcotest.(check (option int)) "root parent" None (Tree.parent t Tree.root)

let test_tree_structure () =
  let t = sample () in
  let kids = Tree.children t Tree.root in
  Alcotest.(check int) "root children" 2 (List.length kids);
  let p1 = List.nth kids 0 in
  Alcotest.(check string) "p1 tag" "patient" (Tree.name t p1);
  Alcotest.(check (option string)) "p1 id attr" (Some "p1")
    (Tree.attribute t p1 "id");
  Alcotest.(check (option string)) "missing attr" None
    (Tree.attribute t p1 "nope");
  let p2 = List.nth kids 1 in
  Alcotest.(check (option int)) "sibling" (Some p2) (Tree.next_sibling t p1);
  Alcotest.(check (option int)) "parent of p1" (Some Tree.root)
    (Tree.parent t p1);
  Alcotest.(check int) "depth p1" 1 (Tree.depth t p1)

let test_tree_subtree_range () =
  let t = sample () in
  let p1 = List.hd (Tree.children t Tree.root) in
  (* patient p1 subtree: ids 1..9 *)
  Alcotest.(check int) "subtree end" 10 (Tree.subtree_end t p1);
  Alcotest.(check int) "subtree size" 9 (Tree.subtree_size t p1);
  Alcotest.(check int) "root subtree = all" (Tree.n_nodes t)
    (Tree.subtree_end t Tree.root)

let test_tree_value () =
  let t = sample () in
  let p1 = List.hd (Tree.children t Tree.root) in
  let pname = List.hd (Tree.children t p1) in
  Alcotest.(check string) "element value" "Ann" (Tree.value t pname);
  let ann = List.hd (Tree.children t pname) in
  Alcotest.(check string) "text value" "Ann" (Tree.value t ann);
  Alcotest.(check bool) "is_text" true (Tree.is_text t ann);
  Alcotest.(check string) "deep texts" "Annautism2006-01-02"
    (Tree.descendant_or_self_texts t p1)

let test_tree_roundtrip () =
  let t = sample () in
  let again = Tree.of_source (Tree.to_source t Tree.root) in
  Alcotest.(check bool) "equal" true (Tree.equal t again)

let test_tree_tags_interned () =
  let t = sample () in
  Alcotest.(check string) "text tag name" "#text"
    (Tree.tag_name t Tree.text_tag);
  (match Tree.id_of_tag t "patient" with
  | None -> Alcotest.fail "patient tag not interned"
  | Some id ->
    Alcotest.(check string) "roundtrip" "patient" (Tree.tag_name t id));
  Alcotest.(check (option int)) "unknown tag" None (Tree.id_of_tag t "zzz");
  (* distinct tags: #text hospital patient pname visit treatment medication
     date = 8 *)
  Alcotest.(check int) "tag count" 8 (Tree.n_tags t)

let test_tree_invalid () =
  Alcotest.check_raises "empty tag"
    (Invalid_argument "Tree.of_source: empty tag name") (fun () ->
      ignore (Tree.of_source (Tree.E ("", [], []))))

(* --- Pull ------------------------------------------------------------ *)

let drain ?keep_ws s =
  Pull.fold (Pull.of_string ?keep_ws s) ~init:[] ~f:(fun acc e -> e :: acc)
  |> List.rev

let test_pull_basic () =
  match drain "<a><b>hi</b><c/></a>" with
  | [ Pull.Start_element ("a", []); Start_element ("b", []); Text "hi";
      End_element "b"; Start_element ("c", []); End_element "c";
      End_element "a" ] ->
    ()
  | evs ->
    Alcotest.fail (Printf.sprintf "unexpected events (%d)" (List.length evs))

let test_pull_attributes () =
  match drain {|<a x="1" y='two &amp; three'/>|} with
  | [ Pull.Start_element ("a", attrs); Pull.End_element "a" ] ->
    Alcotest.(check (list (pair string string)))
      "attrs" [ ("x", "1"); ("y", "two & three") ] attrs
  | _ -> Alcotest.fail "bad events"

let test_pull_entities () =
  match drain "<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</a>" with
  | [ Pull.Start_element _; Pull.Text s; Pull.End_element _ ] ->
    Alcotest.(check string) "decoded" "<>&'\"AB" s
  | _ -> Alcotest.fail "bad events"

let test_pull_cdata () =
  match drain "<a><![CDATA[<not> &parsed;]]></a>" with
  | [ Pull.Start_element _; Pull.Text s; Pull.End_element _ ] ->
    Alcotest.(check string) "cdata" "<not> &parsed;" s
  | _ -> Alcotest.fail "bad events"

let test_pull_comments_and_pi () =
  match
    drain "<?xml version=\"1.0\"?><!-- c --><a><!-- in -->t<?pi data?></a>"
  with
  | [ Pull.Start_element ("a", []); Pull.Text "t"; Pull.End_element "a" ] -> ()
  | _ -> Alcotest.fail "comments/PIs should be invisible"

(* A comment ends at the first "-->", however many hyphens lead into it:
   [b] after "--->" must survive in the events of both modes. *)
let test_comment_three_hyphens () =
  let text = "<a><!-- x ---><b/><!-- y --><c/><!-----><d/></a>" in
  let expected =
    Pull.
      [ Start_element ("a", []); Start_element ("b", []); End_element "b";
        Start_element ("c", []); End_element "c"; Start_element ("d", []);
        End_element "d"; End_element "a" ]
  in
  let show evs =
    String.concat " "
      (List.map
         (function
           | Pull.Start_element (n, _) -> "<" ^ n
           | Pull.End_element n -> n ^ ">"
           | Pull.Text s -> Printf.sprintf "%S" s)
         evs)
  in
  Alcotest.(check string) "stax" (show expected) (show (drain text));
  Alcotest.(check string) "dom" (show expected)
    (show (Parser.events_of_tree (Parser.tree_of_string text)))

let test_pull_doctype_skipped () =
  let evs = drain "<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>t</a>" in
  Alcotest.(check int) "events" 3 (List.length evs)

let test_pull_ws_dropped_and_kept () =
  let evs = drain "<a>\n  <b/>\n</a>" in
  Alcotest.(check int) "dropped" 4 (List.length evs);
  let p = Pull.of_string ~keep_ws:true "<a>\n  <b/>\n</a>" in
  let evs = Pull.fold p ~init:[] ~f:(fun acc e -> e :: acc) in
  Alcotest.(check int) "kept" 6 (List.length evs)

let expect_pull_error s =
  match drain s with
  | exception Pull.Error _ -> ()
  | _ -> Alcotest.fail (Printf.sprintf "no error for %s" s)

let test_pull_errors () =
  expect_pull_error "<a><b></a></b>";
  expect_pull_error "<a>";
  expect_pull_error "text only";
  expect_pull_error "<a/><b/>";
  expect_pull_error "<a x=1/>";
  expect_pull_error "<a>&unknown;</a>";
  expect_pull_error "";
  expect_pull_error "<a x='1' x='2'/>"

let test_pull_error_location () =
  match drain "<a>\n<b></c>\n</a>" with
  | exception Pull.Error (line, _, _) -> Alcotest.(check int) "line" 2 line
  | _ -> Alcotest.fail "expected error"

let test_pull_channel () =
  let path = Filename.temp_file "smoqe" ".xml" in
  let oc = open_out path in
  output_string oc "<r><x>1</x><x>2</x></r>";
  close_out oc;
  let ic = open_in path in
  let p = Pull.of_channel ic in
  let n = Pull.fold p ~init:0 ~f:(fun acc _ -> acc + 1) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "events via channel" 8 n

(* Names and end tags are read in place when the whole token lies in the
   buffer, and by the general path when it does not: each case must give
   the same events, or the same positioned error, from one string and
   through [of_channel] refills at every chunk size up to the input's
   length, so that every token is both whole in the buffer and cut by a
   refill. *)
let test_pull_tag_fast_paths () =
  let outcome pull =
    match
      List.rev (Pull.fold pull ~init:[] ~f:(fun acc e -> e :: acc))
    with
    | evs -> Ok evs
    | exception Pull.Error (l, c, m) -> Error (l, c, m)
  in
  let show = function
    | Ok evs -> Printf.sprintf "%d events" (List.length evs)
    | Error (l, c, m) -> Printf.sprintf "%d:%d: %s" l c m
  in
  let path = Filename.temp_file "smoqe" ".xml" in
  let same input =
    Out_channel.with_open_bin path (fun oc -> output_string oc input);
    let whole = outcome (Pull.of_string input) in
    for chunk_size = 1 to String.length input + 1 do
      let got =
        In_channel.with_open_bin path (fun ic ->
            outcome (Pull.of_channel ~chunk_size ic))
      in
      if got <> whole then
        Alcotest.failf "%S at chunk %d: %s, whole: %s" input chunk_size
          (show got) (show whole)
    done;
    whole
  in
  let accepted input expected =
    match same input with
    | Ok evs -> Alcotest.(check int) input expected (List.length evs)
    | Error (l, c, m) -> Alcotest.failf "%S rejected at %d:%d: %s" input l c m
  in
  accepted "<a></a >" 2;
  accepted "<a ></a>" 2;
  accepted "<a/>" 2;
  accepted "<a><bb/></a>" 4;
  accepted "<patient><pname>x</pname></patient>" 5;
  accepted "<patient\n  id='1'>\n<pname>x</pname  >\n</patient>" 5;
  List.iter
    (fun input ->
      match same input with
      | Error (l, c, _) when l >= 1 && c >= 1 -> ()
      | r -> Alcotest.failf "%S: %s" input (show r))
    [ "<ab></ac>"; "<ab></abc>"; "<ab></a>"; "<ab></ab"; "<ab></ab x>";
      "<ab><"; "<ab/></ab>"; "<ab>x</ab><cd>" ];
  Sys.remove path;
  (* a name keeps one id; distinct names get distinct ids *)
  let p = Pull.of_string "<a><bb/><a c='1'/><bb/></a>" in
  let ids = ref [] in
  let rec go () =
    match Pull.cursor_next p with
    | Pull.Cursor_eof -> ()
    | Pull.Cursor_start ->
      ids := (Pull.cur_name p, Pull.cur_name_id p) :: !ids;
      go ()
    | _ -> go ()
  in
  go ();
  let id n = List.assoc n !ids in
  List.iter
    (fun (n, i) -> Alcotest.(check int) ("id of " ^ n) (id n) i)
    !ids;
  Alcotest.(check bool) "distinct names, distinct ids" true (id "a" <> id "bb")

(* --- Parser / Serializer --------------------------------------------- *)

let test_parser_roundtrip () =
  let t = sample () in
  let s = Serializer.to_string ~indent:false t in
  let t' = Parser.tree_of_string s in
  Alcotest.(check bool) "roundtrip equal" true (Tree.equal t t')

let test_parser_roundtrip_indented () =
  let t = sample () in
  let s = Serializer.to_string ~indent:true ~decl:true t in
  let t' = Parser.tree_of_string s in
  Alcotest.(check bool) "indented roundtrip equal" true (Tree.equal t t')

let test_serializer_escaping () =
  let t =
    Tree.of_source (Tree.E ("a", [ ("k", "<\"'>") ], [ Tree.T "a<b>&c" ]))
  in
  let s = Serializer.to_string ~indent:false t in
  let t' = Parser.tree_of_string s in
  Alcotest.(check bool) "escaped roundtrip" true (Tree.equal t t')

(* Serialization allocates little beyond its output: the buffer's
   doublings and the final copy, not a cell per node. *)
let test_serializer_allocation () =
  let t =
    Smoqe_workload.Hospital.generate ~seed:1 ~n_patients:200
      ~recursion_depth:2 ()
  in
  let before = Gc.allocated_bytes () in
  let s = Serializer.to_string ~indent:false t in
  let per_byte =
    (Gc.allocated_bytes () -. before) /. float_of_int (String.length s)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f bytes allocated per output byte <= 8" per_byte)
    true (per_byte <= 8.)

(* A tree's event sequence is the one a streaming parse of its
   serialization yields. *)
let test_events_of_tree () =
  let t = sample () in
  let evs = Parser.events_of_tree t in
  Alcotest.(check bool) "events = parse of indented" true
    (evs = drain (Serializer.to_string t));
  Alcotest.(check bool) "events = parse of compact" true
    (evs = drain (Serializer.to_string ~indent:false t))

(* --- Input hardening (DESIGN.md §12) --------------------------------- *)

let test_bom () =
  let t = Parser.tree_of_string "\xEF\xBB\xBF<?xml version=\"1.0\"?><a>x</a>" in
  Alcotest.(check string) "root after BOM" "a" (Tree.name t Tree.root);
  expect_pull_error "\xFE\xFF\x00<\x00a\x00/\x00>";
  expect_pull_error "\xFF\xFE<\x00a\x00";
  expect_pull_error "\xEF\xBB<a/>"

let test_doctype_rules () =
  (* quoted '>' and ']' in internal-subset literals must not end the
     DOCTYPE early *)
  let evs =
    drain "<!DOCTYPE a [ <!ATTLIST a x CDATA \"b > c ] d\"> ]><a>t</a>"
  in
  Alcotest.(check int) "quoted markers skipped" 3 (List.length evs);
  expect_pull_error "<a/><!DOCTYPE a []>";
  expect_pull_error "<a><!DOCTYPE a []></a>";
  expect_pull_error "<!DOCTYPE a []><!DOCTYPE a []><a/>";
  expect_pull_error "<!DOCTYPE r ]><r/>"

let test_charref_validation () =
  let text s =
    (* keep_ws: a lone tab is whitespace-only text and would be dropped *)
    let p = Pull.of_string ~keep_ws:true (Printf.sprintf "<a>%s</a>" s) in
    let evs = Pull.fold p ~init:[] ~f:(fun acc e -> e :: acc) |> List.rev in
    match evs with
    | [ _; Pull.Text t; _ ] -> t
    | _ -> Alcotest.fail "expected a single text event"
  in
  Alcotest.(check string) "tab" "\t" (text "&#9;");
  Alcotest.(check string) "max scalar" "\xF4\x8F\xBF\xBF" (text "&#x10FFFF;");
  expect_pull_error "<a>&#0;</a>";
  expect_pull_error "<a>&#8;</a>";
  expect_pull_error "<a>&#xD800;</a>";
  expect_pull_error "<a>&#xDFFF;</a>";
  expect_pull_error "<a>&#x110000;</a>";
  expect_pull_error "<a>&#xFFFE;</a>";
  (* digit flood must be cut off, not accumulated *)
  expect_pull_error
    (Printf.sprintf "<a>&#%s;</a>" (String.make 4096 '9'))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_dup_attr_position () =
  match drain "<a x='1'\n   x='2'/>" with
  | exception Pull.Error (line, col, msg) ->
    Alcotest.(check int) "line" 2 line;
    Alcotest.(check bool) "column" true (col >= 1);
    Alcotest.(check bool) "message names the duplicate" true
      (contains ~sub:"duplicate" msg)
  | _ -> Alcotest.fail "duplicate attribute accepted"

let deep_doc n =
  let buf = Buffer.create (n * 8) in
  for _ = 1 to n do
    Buffer.add_string buf "<d>"
  done;
  Buffer.add_string buf "leaf";
  for _ = 1 to n do
    Buffer.add_string buf "</d>"
  done;
  Buffer.contents buf

(* Run [f] with the OCaml stack capped at 64k words (512 KiB on 64-bit):
   enough for any loop, far too little for a recursion 100k deep.  [f]
   runs in a fresh domain, whose stack starts small: the cap bounds only
   growth, and this domain's stack may have grown in an earlier test. *)
let with_small_stack f =
  let old = Gc.get () in
  Gc.set { old with Gc.stack_limit = 65_536 };
  Fun.protect
    ~finally:(fun () -> Gc.set old)
    (fun () -> Domain.join (Domain.spawn f))

let test_deep_document () =
  (* 100k nesting: recursion anywhere on the tree path would overflow the
     stack — parse, re-emit events and serialize all have to survive.
     The parse runs on a capped stack, so it may not grow the stack with
     the depth at all. *)
  let n = 100_000 in
  let t = with_small_stack (fun () -> Parser.tree_of_string (deep_doc n)) in
  Alcotest.(check int) "leaf depth" n (Tree.depth t n);
  Alcotest.(check (option int)) "leaf parent" (Some (n - 1)) (Tree.parent t n);
  Alcotest.(check string) "innermost value" "leaf" (Tree.value t (n - 1));
  Alcotest.(check int) "nodes" (n + 1) (Tree.n_nodes t);
  let evs = Parser.events_of_tree t in
  Alcotest.(check int) "events" ((2 * n) + 1) (List.length evs);
  let s = Serializer.to_string ~indent:false t in
  Alcotest.(check bool) "serializes" true (String.length s > (6 * n));
  Alcotest.(check bool) "events = parse of serialization" true
    (List.equal ( = ) evs (drain s))

(* StAX streams the 100k-deep document's bytes with its open elements on
   the heap: the native stack must not overflow. *)
let test_deep_document_stax () =
  let n = 100_000 in
  (* served from its bytes, so StAX streams them *)
  let engine =
    match Smoqe.Engine.of_string_robust (deep_doc n) with
    | Ok e -> e
    | Error e -> Alcotest.fail (Smoqe_robust.Error.to_string e)
  in
  match Smoqe.Engine.query_robust engine ~mode:Smoqe.Engine.Stax "//text()" with
  | Ok o ->
    Alcotest.(check (list int)) "the leaf" [ n ] o.Smoqe.Engine.answers;
    Alcotest.(check (list string)) "its text" [ "leaf" ]
      o.Smoqe.Engine.answer_xml
  | Error e -> Alcotest.fail (Smoqe_robust.Error.to_string e)

(* Splices on the 100k-deep document: each result must equal a
   from-scratch build of its content, node by node.  The splices run on a
   capped stack: no recursion over the depth anywhere on the way. *)
let test_deep_splices () =
  let n = 100_000 in
  let t = Parser.tree_of_string (deep_doc n) in
  let deepest = n - 1 in
  let deleted, inserted, replaced =
    with_small_stack (fun () ->
        ( Tree.delete_subtree t deepest,
          Tree.insert_subtree t ~parent:deepest
            (Tree.E
               ("e", [ ("k", "v") ], [ Tree.T "x"; Tree.E ("f", [], []) ])),
          Tree.replace_subtree t (n / 2) (Tree.E ("m", [], [ Tree.T "mid" ]))
        ))
  in
  Alcotest.(check int) "delete: nodes" (n - 1) (Tree.n_nodes deleted);
  Tree_check.check_physical "delete deepest" deleted;
  Alcotest.(check int) "insert: depth" n (Tree.depth inserted (n + 1));
  Tree_check.check_physical "insert under deepest" inserted;
  Alcotest.(check int) "replace: nodes" ((n / 2) + 2) (Tree.n_nodes replaced);
  Tree_check.check_physical "replace at mid depth" replaced

(* Comparing and re-exporting the 100k-deep document on a capped stack:
   [Tree.equal] reads columns and [to_source] keeps its open elements on
   the heap. *)
let test_deep_equal_source () =
  let n = 100_000 in
  let t = Parser.tree_of_string (deep_doc n) in
  with_small_stack (fun () ->
      let compact = Serializer.to_string ~indent:false t in
      Alcotest.(check bool) "equal to its compact re-parse" true
        (Tree.equal t (Parser.tree_of_string compact));
      Alcotest.(check bool) "of_source (to_source t) = t" true
        (Tree.equal (Tree.of_source (Tree.to_source t Tree.root)) t))

let test_deep_budget () =
  let budget = Smoqe_robust.Budget.create ~max_depth:64 () in
  match Parser.tree_of_string ~budget (deep_doc 1000) with
  | exception Smoqe_robust.Budget.Exceeded _ -> ()
  | _ -> Alcotest.fail "depth budget did not trip"

let hospital_dtd () =
  Dtd.create ~root:"hospital"
    [
      ("hospital", Dtd.Children (Dtd.Star (Dtd.Name "patient")));
      ( "patient",
        Dtd.Children
          (Dtd.Seq
             ( Dtd.Name "pname",
               Dtd.Seq
                 (Dtd.Star (Dtd.Name "visit"), Dtd.Star (Dtd.Name "parent"))
             )) );
      ("parent", Dtd.Children (Dtd.Name "patient"));
      ("visit", Dtd.Children (Dtd.Seq (Dtd.Name "treatment", Dtd.Name "date")));
      ( "treatment",
        Dtd.Children (Dtd.Alt (Dtd.Name "test", Dtd.Name "medication")) );
      ("pname", Dtd.Mixed []);
      ("date", Dtd.Mixed []);
      ("test", Dtd.Mixed []);
      ("medication", Dtd.Mixed []);
    ]

let test_dtd_basics () =
  let d = hospital_dtd () in
  Alcotest.(check string) "root" "hospital" (Dtd.root d);
  Alcotest.(check (list string))
    "children of patient"
    [ "pname"; "visit"; "parent" ]
    (Dtd.child_types d "patient");
  Alcotest.(check bool) "recursive" true (Dtd.is_recursive d);
  Alcotest.(check bool) "pcdata" true (Dtd.allows_text d "pname");
  Alcotest.(check bool) "no pcdata" false (Dtd.allows_text d "hospital");
  Alcotest.(check int) "reachable" 9 (List.length (Dtd.reachable d))

let test_dtd_errors () =
  (let raised =
     try
       ignore (Dtd.create ~root:"a" [ ("b", Dtd.Empty) ]);
       false
     with Invalid_argument _ -> true
   in
   Alcotest.(check bool) "missing root" true raised);
  let raised =
    try
      ignore (Dtd.create ~root:"a" [ ("a", Dtd.Children (Dtd.Name "zz")) ]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "undeclared child" true raised

let test_dtd_rename () =
  let d = hospital_dtd () in
  let d' = Dtd.rename_type d ~old_name:"patient" ~new_name:"person" in
  Alcotest.(check (list string))
    "renamed edge" [ "person" ]
    (Dtd.child_types d' "parent");
  Alcotest.(check bool) "old gone" true (Dtd.content d' "patient" = None)

let test_dtd_parser () =
  let src =
    {|<!DOCTYPE hospital [
        <!-- the schema of Fig. 3(a) -->
        <!ELEMENT hospital (patient*)>
        <!ELEMENT patient (pname, visit*, parent*)>
        <!ELEMENT parent (patient)>
        <!ELEMENT visit (treatment, date)>
        <!ELEMENT treatment (test | medication)>
        <!ELEMENT pname (#PCDATA)>
        <!ELEMENT date (#PCDATA)>
        <!ELEMENT test (#PCDATA)>
        <!ELEMENT medication (#PCDATA)>
      ]>|}
  in
  let d = Dtd_parser.of_string src in
  Alcotest.(check bool) "equal to handbuilt" true (Dtd.equal d (hospital_dtd ()))

let test_dtd_parser_bare () =
  let d =
    Dtd_parser.of_string
      "<!ELEMENT r (a?, b+)> <!ELEMENT a EMPTY> <!ELEMENT b ANY>"
  in
  Alcotest.(check string) "root defaults to first" "r" (Dtd.root d);
  (match Dtd.content d "r" with
  | Some
      (Dtd.Children
        (Dtd.Seq (Dtd.Opt (Dtd.Name "a"), Dtd.Plus (Dtd.Name "b")))) ->
    ()
  | _ -> Alcotest.fail "wrong content model for r");
  Alcotest.(check bool) "a EMPTY" true (Dtd.content d "a" = Some Dtd.Empty);
  Alcotest.(check bool) "b ANY" true (Dtd.content d "b" = Some Dtd.Any)

let test_dtd_parser_mixed_names () =
  let d =
    Dtd_parser.of_string
      "<!ELEMENT p (#PCDATA | em | strong)*> <!ELEMENT em (#PCDATA)> <!ELEMENT strong (#PCDATA)>"
  in
  match Dtd.content d "p" with
  | Some (Dtd.Mixed [ "em"; "strong" ]) -> ()
  | _ -> Alcotest.fail "wrong mixed model"

let test_dtd_parser_attlist_skipped () =
  let d =
    Dtd_parser.of_string "<!ELEMENT a EMPTY> <!ATTLIST a id CDATA #REQUIRED>"
  in
  Alcotest.(check (list string)) "only a" [ "a" ] (Dtd.element_names d)

let test_dtd_parser_error () =
  match Dtd_parser.of_string "<!ELEMENT r (a" with
  | exception Dtd_parser.Error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

let test_dtd_print_parse_roundtrip () =
  let d = hospital_dtd () in
  let d' = Dtd_parser.of_string ~root:"hospital" (Dtd.to_string d) in
  Alcotest.(check bool) "print/parse" true (Dtd.equal d d')

(* --- Validator -------------------------------------------------------- *)

let test_validator_valid () =
  let d = hospital_dtd () in
  let t =
    Parser.tree_of_string
      "<hospital><patient><pname>Ann</pname><visit><treatment><medication>autism</medication></treatment><date>d</date></visit></patient></hospital>"
  in
  Alcotest.(check bool) "valid" true (Validator.is_valid d t)

let test_validator_recursive_valid () =
  let d = hospital_dtd () in
  let t =
    Parser.tree_of_string
      "<hospital><patient><pname>A</pname><parent><patient><pname>B</pname></patient></parent></patient></hospital>"
  in
  Alcotest.(check bool) "recursive valid" true (Validator.is_valid d t)

let test_validator_invalid_sequence () =
  let d = hospital_dtd () in
  (* visit before pname violates the sequence *)
  let t =
    Parser.tree_of_string
      "<hospital><patient><visit><treatment><test>t</test></treatment><date>d</date></visit><pname>A</pname></patient></hospital>"
  in
  match Validator.validate d t with
  | Ok () -> Alcotest.fail "should be invalid"
  | Error errs ->
    Alcotest.(check bool) "mentions patient" true
      (List.exists (fun e -> e.Validator.element = "patient") errs)

let test_validator_undeclared () =
  let d = hospital_dtd () in
  let t = Parser.tree_of_string "<hospital><intruder/></hospital>" in
  match Validator.validate d t with
  | Ok () -> Alcotest.fail "should be invalid"
  | Error errs -> Alcotest.(check bool) "has errors" true (errs <> [])

let test_validator_wrong_root () =
  let d = hospital_dtd () in
  let t = Parser.tree_of_string "<patient><pname>A</pname></patient>" in
  Alcotest.(check bool) "wrong root" false (Validator.is_valid d t)

let test_validator_text_in_element_content () =
  let d = hospital_dtd () in
  let t = Parser.tree_of_string "<hospital>stray</hospital>" in
  Alcotest.(check bool) "text rejected" false (Validator.is_valid d t)

let test_matches_regex () =
  let r = Dtd.(Seq (Name "a", Star (Alt (Name "b", Name "c")))) in
  Alcotest.(check bool) "abc" true (Validator.matches r [ "a"; "b"; "c" ]);
  Alcotest.(check bool) "a" true (Validator.matches r [ "a" ]);
  Alcotest.(check bool) "ba" false (Validator.matches r [ "b"; "a" ]);
  Alcotest.(check bool) "empty" false (Validator.matches r []);
  Alcotest.(check bool) "opt" true
    (Validator.matches (Dtd.Opt (Dtd.Name "x")) []);
  Alcotest.(check bool) "plus needs one" false
    (Validator.matches (Dtd.Plus (Dtd.Name "x")) [])

(* --- Validator differential ------------------------------------------- *)

(* The per-element check before content models were compiled: a list of
   child names matched by derivatives ([Validator.matches]).  Kept here
   as the reference; [Validator.validate] must return exactly its error
   list — nodes, elements, messages and order. *)
let reference_validate dtd t =
  let err n message =
    { Validator.node = n; element = Tree.name t n; message }
  in
  let child_names n =
    List.map
      (fun c -> if Tree.is_text t c then "#text" else Tree.name t c)
      (Tree.children t n)
  in
  let check n errors =
    match Dtd.content dtd (Tree.name t n) with
    | None -> err n "undeclared element type" :: errors
    | Some Dtd.Any -> errors
    | Some Dtd.Empty ->
      if Tree.children t n = [] then errors
      else err n "EMPTY element has children" :: errors
    | Some (Dtd.Mixed allowed) ->
      List.fold_left
        (fun errors c ->
          if Tree.is_text t c || List.mem (Tree.name t c) allowed then errors
          else
            err n
              (Printf.sprintf "element %s not allowed in mixed content"
                 (Tree.name t c))
            :: errors)
        errors (Tree.children t n)
    | Some (Dtd.Children r) ->
      let names = child_names n in
      let errors =
        if List.mem "#text" names then err n "text in element content" :: errors
        else errors
      in
      let element_names = List.filter (fun s -> s <> "#text") names in
      if Validator.matches r element_names then errors
      else
        err n
          (Fmt.str "children (%a) do not match content model %a"
             Fmt.(list ~sep:comma string)
             element_names Dtd.pp_regex r)
        :: errors
  in
  let errors = ref [] in
  if Tree.name t Tree.root <> Dtd.root dtd then
    errors :=
      [ { Validator.node = Tree.root; element = Tree.name t Tree.root;
          message = Printf.sprintf "root element is not %s" (Dtd.root dtd) } ];
  Tree.iter_preorder t (fun n ->
      if Tree.is_element t n then errors := check n !errors);
  match List.rev !errors with [] -> Ok () | es -> Error es

(* Random DTDs varied beyond what [Random_dtd] draws: leaf types become
   EMPTY, ANY or mixed content naming other types, and some element
   content gains an alternative. *)
let varied_dtd rng seed =
  let base =
    Smoqe_workload.Random_dtd.generate ~seed ~n_types:(2 + (seed mod 7))
      ~recursion:(seed mod 2 = 0) ()
  in
  let names = Dtd.element_names base in
  let leaf = List.nth names (List.length names - 1) in
  let vary (name, content) =
    let pick = Random.State.int rng 4 in
    match content with
    | Dtd.Mixed [] when name <> Dtd.root base -> (
      match pick with
      | 0 -> (name, Dtd.Empty)
      | 1 -> (name, Dtd.Any)
      | 2 ->
        (name, Dtd.Mixed (List.filter (fun _ -> Random.State.bool rng) names))
      | _ -> (name, content))
    | Dtd.Children r when pick = 0 ->
      let alt = Dtd.Seq (Dtd.Name leaf, Dtd.Opt (Dtd.Name leaf)) in
      (name, Dtd.Children (Dtd.Alt (r, alt)))
    | _ -> (name, content)
  in
  Dtd.create ~root:(Dtd.root base) (List.map vary (Dtd.productions base))

(* One seeded mutation: an edit of a random element's children or tag,
   or (one time in eight) another declared type at the root. *)
let mutate rng dtd src =
  let rec count = function
    | Tree.T _ -> 0
    | Tree.E (_, _, kids) -> List.fold_left (fun n k -> n + count k) 1 kids
  in
  (* [splice i k by l] replaces the [k] items of [l] at [i] by [by]. *)
  let splice i k by l =
    List.filteri (fun j _ -> j < i) l
    @ by
    @ List.filteri (fun j _ -> j >= i + k) l
  in
  (* Drop, duplicate or swap children, insert text, or (also when the
     drawn edit does not apply) rename to an undeclared tag. *)
  let edit tag attrs kids =
    let n = List.length kids in
    match Random.State.int rng 5 with
    | 0 when n > 0 ->
      Tree.E (tag, attrs, splice (Random.State.int rng n) 1 [] kids)
    | 1 when n > 0 ->
      let i = Random.State.int rng n in
      Tree.E (tag, attrs, splice i 0 [ List.nth kids i ] kids)
    | 2 when n > 1 ->
      let i = Random.State.int rng (n - 1) in
      Tree.E
        (tag, attrs, splice i 2 [ List.nth kids (i + 1); List.nth kids i ] kids)
    | 3 ->
      let i = Random.State.int rng (n + 1) in
      Tree.E (tag, attrs, splice i 0 [ Tree.T "stray" ] kids)
    | _ -> Tree.E ("undeclared", attrs, kids)
  in
  let target = Random.State.int rng (count src) in
  let next = ref 0 in
  let rec go = function
    | Tree.T _ as t -> t
    | Tree.E (tag, attrs, kids) ->
      let here = !next in
      incr next;
      let kids = List.map go kids in
      if here = target then edit tag attrs kids else Tree.E (tag, attrs, kids)
  in
  if Random.State.int rng 8 = 0 then
    (* change the root *)
    match src with
    | Tree.E (_, attrs, kids) ->
      let others =
        List.filter (fun n -> n <> Dtd.root dtd) (Dtd.element_names dtd)
      in
      let tag = match others with [] -> "undeclared" | o :: _ -> o in
      Tree.E (tag, attrs, kids)
    | Tree.T _ -> src
  else go src

let test_validator_differential () =
  let dtds rng seed =
    [ varied_dtd rng seed; Smoqe_workload.Hospital.dtd; Smoqe_workload.Bib.dtd ]
  in
  let invalid = ref 0 and total = ref 0 in
  let messages = Hashtbl.create 8 in
  for seed = 1 to 300 do
    let rng = Random.State.make [| seed |] in
    List.iter
      (fun dtd ->
        let doc =
          Smoqe_workload.Docgen.generate ~rng ~max_depth:6 ~fanout:3 dtd
        in
        let src = Tree.to_source doc Tree.root in
        let src =
          if Random.State.int rng 4 = 0 then src else mutate rng dtd src
        in
        let t = Tree.of_source src in
        (* the same document through the parser: tag ids in another
           order, adjacent text merged *)
        let parsed =
          Parser.tree_of_string (Serializer.to_string ~indent:false t)
        in
        List.iter
          (fun t ->
            let expected = reference_validate dtd t in
            incr total;
            (match expected with
            | Ok () -> ()
            | Error es ->
              incr invalid;
              List.iter
                (fun e ->
                  let m = e.Validator.message in
                  let kind =
                    try String.sub m 0 (String.index m ' ')
                    with Not_found -> m
                  in
                  Hashtbl.replace messages kind ())
                es);
            if Validator.validate dtd t <> expected then
              Alcotest.failf
                "seed %d: validate differs from the reference on %s" seed
                (Serializer.to_string ~indent:false t))
          [ t; parsed ])
      (dtds rng seed)
  done;
  (* the mutations must actually produce invalid documents, of every
     kind the validator reports *)
  Alcotest.(check bool) "mix of valid and invalid" true
    (!invalid > !total / 3 && !invalid < !total);
  List.iter
    (fun kind ->
      Alcotest.(check bool) ("some error starts with " ^ kind) true
        (Hashtbl.mem messages kind))
    [ "undeclared"; "EMPTY"; "element"; "text"; "children"; "root" ]

(* --- Budget accounting ------------------------------------------------ *)

module Budget = Smoqe_robust.Budget

(* Every signal [cursor_next] returns, end of stream included. *)
let drain_signals p =
  let rec go k =
    match Pull.cursor_next p with Pull.Cursor_eof -> k + 1 | _ -> go (k + 1)
  in
  go 0

(* A document over several lines whose element at depth [k] is [e<k>]. *)
let nested_doc depth =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "<?xml version=\"1.0\"?>\n";
  for k = 1 to depth do
    Buffer.add_string buf (String.make k ' ');
    Printf.bprintf buf "<e%d a=\"%d\">text &amp; more\n" k k
  done;
  for k = depth downto 1 do
    Printf.bprintf buf "%s<leaf/></e%d>\n" (String.make k ' ') k
  done;
  Buffer.contents buf

let budget_docs () =
  [ nested_doc 12;
    Serializer.to_string ~indent:true (sample ());
    Serializer.to_string ~indent:false
      (Smoqe_workload.Hospital.generate ~seed:3 ~n_patients:20
         ~recursion_depth:2 ()) ]

let test_budget_counts_events () =
  List.iter
    (fun doc ->
      let budget = Budget.create ~max_nodes:max_int () in
      let signals = drain_signals (Pull.of_string ~budget doc) in
      Alcotest.(check int) "nodes scanned = signals delivered" signals
        (Budget.nodes_scanned budget))
    (budget_docs ())

(* Events are settled in batches of 32: the signal that trips is the
   first multiple of 32 past the limit, or end of stream. *)
let test_budget_max_nodes_trip () =
  List.iter
    (fun doc ->
      let total = drain_signals (Pull.of_string doc) in
      List.iter
        (fun limit ->
          let budget = Budget.create ~max_nodes:limit () in
          let p = Pull.of_string ~budget doc in
          let delivered = ref 0 in
          let tripped =
            match
              while Pull.cursor_next p <> Pull.Cursor_eof do
                incr delivered
              done
            with
            | () -> false
            | exception Budget.Exceeded { what = "max_nodes"; _ } -> true
          in
          let expected =
            if total <= limit then None
            else Some (min total (32 * ((limit / 32) + 1)) - 1)
          in
          Alcotest.(check (option int))
            (Printf.sprintf "max_nodes %d of %d" limit total)
            expected
            (if tripped then Some !delivered else None))
        [ 0; 1; 5; 31; 32; 33; 63; 64; 100; total - 1; total; total + 1 ])
    (budget_docs ())

(* A [max_depth] of [m] trips right after the '>' of the first start tag
   at depth [m + 1]: the position is computed here from the text. *)
let test_budget_max_depth_position () =
  let depth = 12 in
  let doc = nested_doc depth in
  for m = 0 to depth - 1 do
    let tag = Printf.sprintf "<e%d a=" (m + 1) in
    let rec find i =
      if String.sub doc i (String.length tag) = tag then i else find (i + 1)
    in
    let stop = String.index_from doc (find 0) '>' + 1 in
    let line = ref 1 and col = ref 1 in
    String.iteri
      (fun i c ->
        if i < stop then
          if c = '\n' then (incr line; col := 1) else incr col)
      doc;
    let check label p =
      match drain_signals p with
      | _ -> Alcotest.failf "%s: max_depth %d did not trip" label m
      | exception Budget.Exceeded { what = "max_depth"; _ } ->
        Alcotest.(check (pair int int))
          (Printf.sprintf "%s: max_depth %d trips at" label m)
          (!line, !col)
          (Pull.line p, Pull.column p)
    in
    check "string" (Pull.of_string ~budget:(Budget.create ~max_depth:m ()) doc);
    let path = Filename.temp_file "depth" ".xml" in
    Out_channel.with_open_bin path (fun oc -> output_string oc doc);
    In_channel.with_open_bin path (fun ic ->
        let budget = Budget.create ~max_depth:m () in
        check "chunk 7" (Pull.of_channel ~chunk_size:7 ~budget ic));
    Sys.remove path
  done

(* --- Property tests --------------------------------------------------- *)

let tag_gen = QCheck2.Gen.oneofl [ "a"; "b"; "c"; "d"; "item"; "node" ]

let text_gen =
  QCheck2.Gen.oneofl [ "x"; "hello"; "a&b"; "<raw>"; "  spaced  "; "'\"q\"'" ]

let source_gen =
  QCheck2.Gen.(
    sized_size (int_bound 6)
    @@ fix (fun self n ->
           if n = 0 then
             oneof
               [
                 map (fun s -> Tree.T s) text_gen;
                 map (fun tag -> Tree.E (tag, [], [])) tag_gen;
               ]
           else
             map2
               (fun tag kids -> Tree.E (tag, [], kids))
               tag_gen
               (list_size (int_bound 4) (self (n / 2)))))

let root_source_gen =
  QCheck2.Gen.(
    map2
      (fun tag kids -> Tree.E (tag, [], kids))
      tag_gen
      (list_size (int_bound 4) source_gen))

(* Parsing merges adjacent text nodes, so compare canonical forms. *)
let rec canonical = function
  | Tree.T s -> Tree.T s
  | Tree.E (tag, attrs, kids) ->
    let kids = List.map canonical kids in
    let merged =
      List.fold_left
        (fun acc kid ->
          match kid, acc with
          | Tree.T s, Tree.T p :: rest -> Tree.T (p ^ s) :: rest
          | kid, acc -> kid :: acc)
        [] kids
      |> List.rev
      |> List.filter (function Tree.T "" -> false | Tree.T _ | Tree.E _ -> true)
    in
    Tree.E (tag, attrs, merged)

let prop_serialize_parse_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"serialize/parse roundtrip (compact)"
    root_source_gen (fun src ->
      let t = Tree.of_source (canonical src) in
      let s = Serializer.to_string ~indent:false t in
      let t' = Parser.tree_of_string ~keep_ws:true s in
      (* both front ends derive the same links, node by node *)
      Tree_check.same_nodes "roundtrip" t t';
      Tree.equal t t')

let prop_subtree_ranges_nested =
  QCheck2.Test.make ~count:200 ~name:"subtree ranges are nested intervals"
    root_source_gen (fun src ->
      let t = Tree.of_source src in
      let ok = ref true in
      Tree.iter_preorder t (fun n ->
          Tree.iter_children t n (fun c ->
              if not (n < c && Tree.subtree_end t c <= Tree.subtree_end t n)
              then ok := false;
              if Tree.parent t c <> Some n then ok := false));
      !ok)

let prop_depth_consistent =
  QCheck2.Test.make ~count:200 ~name:"depth = parent depth + 1" root_source_gen
    (fun src ->
      let t = Tree.of_source src in
      let ok = ref true in
      Tree.iter_preorder t (fun n ->
          match Tree.parent t n with
          | None -> if Tree.depth t n <> 0 then ok := false
          | Some p -> if Tree.depth t n <> Tree.depth t p + 1 then ok := false);
      !ok)

let prop_events_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"events_of_tree = parse of serialization"
    root_source_gen (fun src ->
      let t = Tree.of_source (canonical src) in
      Parser.events_of_tree t
      = drain ~keep_ws:true (Serializer.to_string ~indent:false t))

(* Documents whose bytes exercise every way the parser codes content:
   literal text, entity and character references (decoded into the
   appendix), CDATA sections, attributes and mixed content.  Text is a
   [run]: characters, each with its code point and how it is written. *)
type run = ((string * int) * int) list

type piece =
  | Plain of run
  | Cdata of run
  | Elem of string * (string * run) list * piece list

let unit_gen =
  QCheck2.Gen.oneofl
    [ ("a", 97); ("Z", 90); (" ", 32); ("\n", 10); ("<", 60); (">", 62);
      ("&", 38); ("'", 39); ("\"", 34); ("\xc3\xa9", 233);
      ("\xe2\x82\xac", 8364) ]

let units_gen =
  QCheck2.Gen.(list_size (int_range 1 5) (pair unit_gen (int_bound 3)))

let units_value us = String.concat "" (List.map (fun ((s, _), _) -> s) us)

(* One unit as markup: literal (escaped where it must be), decimal or
   hexadecimal character reference, or a named entity where one exists.
   In an attribute value a literal newline would be normalized to a
   space, and the quote delimits, so both are escaped there. *)
let render_unit ~in_attr ((s, cp), how) =
  let named =
    match cp with
    | 60 -> Some "&lt;"
    | 62 -> Some "&gt;"
    | 38 -> Some "&amp;"
    | 39 -> Some "&apos;"
    | 34 -> Some "&quot;"
    | _ -> None
  in
  match how with
  | 1 -> Printf.sprintf "&#%d;" cp
  | 2 -> Printf.sprintf "&#x%X;" cp
  | 3 when named <> None -> Option.get named
  | _ -> (
    match cp with
    | 60 -> "&lt;"
    | 38 -> "&amp;"
    | 34 when in_attr -> "&quot;"
    | 10 when in_attr -> "&#10;"
    | _ -> s)

let rec render buf = function
  | Plain us ->
    List.iter (fun u -> Buffer.add_string buf (render_unit ~in_attr:false u)) us
  | Cdata us ->
    Buffer.add_string buf "<![CDATA[";
    Buffer.add_string buf (units_value us);
    Buffer.add_string buf "]]>"
  | Elem (tag, attrs, kids) ->
    Printf.bprintf buf "<%s" tag;
    List.iter
      (fun (k, us) ->
        Printf.bprintf buf " %s=\"%s\"" k
          (String.concat "" (List.map (render_unit ~in_attr:true) us)))
      attrs;
    Buffer.add_char buf '>';
    List.iter (render buf) kids;
    Printf.bprintf buf "</%s>" tag

let render_doc p =
  let buf = Buffer.create 256 in
  render buf p;
  Buffer.contents buf

(* The tree the bytes describe: adjacent literal runs are one text node,
   and each CDATA section is a text node of its own. *)
let rec piece_source = function
  | Plain us | Cdata us -> Tree.T (units_value us)
  | Elem (tag, attrs, kids) ->
    let rec merge = function
      | Plain a :: Plain b :: rest -> merge (Plain (a @ b) :: rest)
      | k :: rest -> piece_source k :: merge rest
      | [] -> []
    in
    Tree.E
      (tag, List.map (fun (k, us) -> (k, units_value us)) attrs, merge kids)

let attrs_gen =
  QCheck2.Gen.(
    map
      (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b))
      (list_size (int_bound 3)
         (pair (oneofl [ "id"; "k"; "x-y"; "n.s" ]) units_gen)))

let piece_gen =
  QCheck2.Gen.(
    sized_size (int_bound 5)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun us -> Plain us) units_gen;
                 map (fun us -> Cdata us) units_gen;
                 map2 (fun tag a -> Elem (tag, a, [])) tag_gen attrs_gen;
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 ( 2,
                   map3
                     (fun tag a kids -> Elem (tag, a, kids))
                     tag_gen attrs_gen
                     (list_size (int_bound 4) (self (n / 2))) );
               ]))

let doc_piece_gen =
  QCheck2.Gen.(
    map3
      (fun tag a kids -> Elem (tag, a, kids))
      tag_gen attrs_gen
      (list_size (int_bound 5) piece_gen))

(* Each node of a source in pre-order, worked out by recursion over the
   source rather than by the builder both trees share: (parent, depth,
   subtree size, value). *)
let naive_nodes src =
  let rec size = function
    | Tree.T _ -> 1
    | Tree.E (_, _, kids) -> List.fold_left (fun a k -> a + size k) 1 kids
  in
  let acc = ref [] and next = ref 0 in
  let rec go parent depth node =
    let id = !next in
    incr next;
    match node with
    | Tree.T s -> acc := (parent, depth, 1, s) :: !acc
    | Tree.E (_, _, kids) ->
      let texts =
        List.filter_map (function Tree.T s -> Some s | Tree.E _ -> None) kids
      in
      acc := (parent, depth, size node, String.concat "" texts) :: !acc;
      List.iter (go (Some id) (depth + 1)) kids
  in
  go None 0 src;
  List.rev !acc

let prop_parse_equals_of_source =
  QCheck2.Test.make ~count:300 ~print:render_doc
    ~name:"parsed = of_source, column by column" doc_piece_gen (fun p ->
      let src = piece_source p in
      let parsed = Parser.tree_of_string ~keep_ws:true (render_doc p) in
      Tree_check.same_nodes "parsed" (Tree.of_source src) parsed;
      naive_nodes src
      = List.init (Tree.n_nodes parsed) (fun n ->
            ( Tree.parent parsed n,
              Tree.depth parsed n,
              Tree.subtree_size parsed n,
              Tree.value parsed n )))

let qsuite =
  Qcheck_seed.to_alcotest
    [
      prop_serialize_parse_roundtrip;
      prop_subtree_ranges_nested;
      prop_depth_consistent;
      prop_events_roundtrip;
      prop_parse_equals_of_source;
    ]

let () =
  Alcotest.run "smoqe_xml"
    [
      ( "tree",
        [
          Alcotest.test_case "counts" `Quick test_tree_counts;
          Alcotest.test_case "structure" `Quick test_tree_structure;
          Alcotest.test_case "subtree range" `Quick test_tree_subtree_range;
          Alcotest.test_case "value" `Quick test_tree_value;
          Alcotest.test_case "roundtrip" `Quick test_tree_roundtrip;
          Alcotest.test_case "tags interned" `Quick test_tree_tags_interned;
          Alcotest.test_case "invalid input" `Quick test_tree_invalid;
        ] );
      ( "pull",
        [
          Alcotest.test_case "basic" `Quick test_pull_basic;
          Alcotest.test_case "attributes" `Quick test_pull_attributes;
          Alcotest.test_case "entities" `Quick test_pull_entities;
          Alcotest.test_case "cdata" `Quick test_pull_cdata;
          Alcotest.test_case "comments and PIs" `Quick test_pull_comments_and_pi;
          Alcotest.test_case "comment closed by three hyphens" `Quick
            test_comment_three_hyphens;
          Alcotest.test_case "doctype skipped" `Quick test_pull_doctype_skipped;
          Alcotest.test_case "whitespace modes" `Quick
            test_pull_ws_dropped_and_kept;
          Alcotest.test_case "errors" `Quick test_pull_errors;
          Alcotest.test_case "error location" `Quick test_pull_error_location;
          Alcotest.test_case "channel input" `Quick test_pull_channel;
          Alcotest.test_case "tag fast paths" `Quick test_pull_tag_fast_paths;
        ] );
      ( "parser-serializer",
        [
          Alcotest.test_case "roundtrip compact" `Quick test_parser_roundtrip;
          Alcotest.test_case "roundtrip indented" `Quick
            test_parser_roundtrip_indented;
          Alcotest.test_case "escaping" `Quick test_serializer_escaping;
          Alcotest.test_case "event stream" `Quick test_events_of_tree;
          Alcotest.test_case "serializer allocation" `Quick
            test_serializer_allocation;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "byte-order marks" `Quick test_bom;
          Alcotest.test_case "doctype rules" `Quick test_doctype_rules;
          Alcotest.test_case "char-ref validation" `Quick
            test_charref_validation;
          Alcotest.test_case "duplicate attribute" `Quick
            test_dup_attr_position;
          Alcotest.test_case "deep document" `Quick test_deep_document;
          Alcotest.test_case "deep document stax" `Quick
            test_deep_document_stax;
          Alcotest.test_case "deep document splices" `Quick
            test_deep_splices;
          Alcotest.test_case "deep equal and to_source" `Quick
            test_deep_equal_source;
          Alcotest.test_case "deep budget" `Quick test_deep_budget;
        ] );
      ( "dtd",
        [
          Alcotest.test_case "basics" `Quick test_dtd_basics;
          Alcotest.test_case "errors" `Quick test_dtd_errors;
          Alcotest.test_case "rename" `Quick test_dtd_rename;
          Alcotest.test_case "parser doctype" `Quick test_dtd_parser;
          Alcotest.test_case "parser bare" `Quick test_dtd_parser_bare;
          Alcotest.test_case "parser mixed" `Quick test_dtd_parser_mixed_names;
          Alcotest.test_case "attlist skipped" `Quick
            test_dtd_parser_attlist_skipped;
          Alcotest.test_case "parse error" `Quick test_dtd_parser_error;
          Alcotest.test_case "print/parse" `Quick test_dtd_print_parse_roundtrip;
        ] );
      ( "validator",
        [
          Alcotest.test_case "valid doc" `Quick test_validator_valid;
          Alcotest.test_case "recursive valid" `Quick
            test_validator_recursive_valid;
          Alcotest.test_case "invalid sequence" `Quick
            test_validator_invalid_sequence;
          Alcotest.test_case "undeclared" `Quick test_validator_undeclared;
          Alcotest.test_case "wrong root" `Quick test_validator_wrong_root;
          Alcotest.test_case "text in element content" `Quick
            test_validator_text_in_element_content;
          Alcotest.test_case "regex matching" `Quick test_matches_regex;
          Alcotest.test_case "differential vs derivatives" `Quick
            test_validator_differential;
        ] );
      ( "budget",
        [
          Alcotest.test_case "counts every event" `Quick
            test_budget_counts_events;
          Alcotest.test_case "max_nodes trip event" `Quick
            test_budget_max_nodes_trip;
          Alcotest.test_case "max_depth trip position" `Quick
            test_budget_max_depth_position;
        ] );
      ("properties", qsuite);
    ]
