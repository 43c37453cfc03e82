(* Tests for the TAX index and its compressed codec. *)

module Tree = Smoqe_xml.Tree
module Xml_parser = Smoqe_xml.Parser
module Tax = Smoqe_tax.Tax
module Codec = Smoqe_tax.Codec

let doc s = Xml_parser.tree_of_string s

let sample () = doc "<r><a><b>x</b><c/></a><a><b>y</b></a><d/></r>"

let test_build_membership () =
  let t = sample () in
  let idx = Tax.build t in
  let tag name = Option.get (Tree.id_of_tag t name) in
  (* root sees everything below *)
  Alcotest.(check bool) "root has a" true (Tax.mem idx 0 (tag "a"));
  Alcotest.(check bool) "root has b" true (Tax.mem idx 0 (tag "b"));
  Alcotest.(check bool) "root has text" true (Tax.has_text idx 0);
  (* strictness: a node does not contain its own tag unless repeated *)
  let first_a = List.hd (Tree.children t 0) in
  Alcotest.(check bool) "a has b" true (Tax.mem idx first_a (tag "b"));
  Alcotest.(check bool) "a has c" true (Tax.mem idx first_a (tag "c"));
  Alcotest.(check bool) "a lacks a" false (Tax.mem idx first_a (tag "a"));
  Alcotest.(check bool) "a lacks d" false (Tax.mem idx first_a (tag "d"));
  (* leaves are empty *)
  let d = List.nth (Tree.children t 0) 2 in
  Alcotest.(check bool) "d empty" false (Tax.mem idx d (tag "a"));
  Alcotest.(check bool) "d no text" false (Tax.has_text idx d)

let test_recursive_tags () =
  let t = doc "<a><a><a><b/></a></a></a>" in
  let idx = Tax.build t in
  let a = Option.get (Tree.id_of_tag t "a") in
  Alcotest.(check bool) "outer a contains a" true (Tax.mem idx 0 a);
  Alcotest.(check bool) "innermost a has no a" false (Tax.mem idx 2 a)

let test_descendant_tags_listing () =
  let t = sample () in
  let idx = Tax.build t in
  Alcotest.(check (list string))
    "root listing"
    [ "#text"; "a"; "b"; "c"; "d" ]
    (Tax.descendant_tags idx t 0)

let test_mem_name_unknown () =
  let t = sample () in
  let idx = Tax.build t in
  Alcotest.(check bool) "unknown tag" false (Tax.mem_name idx t 0 "zzz")

let test_codec_roundtrip () =
  let t = sample () in
  let idx = Tax.build t in
  match Codec.of_bytes (Codec.to_bytes idx) with
  | Ok idx' -> Alcotest.(check bool) "equal" true (Tax.equal idx idx')
  | Error msg -> Alcotest.fail msg

let test_codec_file_roundtrip () =
  let t = sample () in
  let idx = Tax.build t in
  let path = Filename.temp_file "smoqe" ".tax" in
  Codec.save path idx;
  (match Codec.load path with
  | Ok idx' -> Alcotest.(check bool) "equal" true (Tax.equal idx idx')
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

let test_codec_corrupt () =
  (match Codec.of_bytes (Bytes.of_string "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic accepted");
  let t = sample () in
  let good = Codec.to_bytes (Tax.build t) in
  let truncated = Bytes.sub good 0 (Bytes.length good - 2) in
  match Codec.of_bytes truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated buffer accepted"

let test_codec_compresses_repetition () =
  (* Many identical record subtrees: the dictionary + RLE must beat the
     naive one-row-per-node footprint. *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<r>";
  for i = 1 to 500 do
    Buffer.add_string buf (Printf.sprintf "<rec><f1>%d</f1><f2>v</f2></rec>" i)
  done;
  Buffer.add_string buf "</r>";
  let t = doc (Buffer.contents buf) in
  let idx = Tax.build t in
  let encoded = Bytes.length (Codec.to_bytes idx) in
  let in_memory = Tax.memory_words idx * (Sys.int_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "encoded %d bytes vs %d in memory" encoded in_memory)
    true
    (encoded * 3 < in_memory)

(* Property: TAX membership = brute-force descendant scan. *)
let tag_gen = QCheck2.Gen.oneofl [ "a"; "b"; "c"; "d" ]

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

let prop_membership_correct =
  QCheck2.Test.make ~count:300 ~name:"TAX = brute-force descendant types"
    doc_gen (fun t ->
      let idx = Tax.build t in
      let ok = ref true in
      Tree.iter_preorder t (fun n ->
          for tag = 0 to Tree.n_tags t - 1 do
            let brute = ref false in
            for d = n + 1 to Tree.subtree_end t n - 1 do
              if Tree.tag_id t d = tag then brute := true
            done;
            if Tax.mem idx n tag <> !brute then ok := false
          done);
      !ok)

(* The rows by another road: every node adds its tag to each ancestor's
   set, found through parent links rather than subtree ends. *)
let prop_build_equals_naive_rows =
  QCheck2.Test.make ~count:300 ~name:"build = of_rows of naive tag sets"
    doc_gen (fun t ->
      let rows = Array.make (Tree.n_nodes t) [] in
      Tree.iter_preorder t (fun d ->
          let tag = Tree.tag_id t d in
          let rec up = function
            | None -> ()
            | Some a ->
              if not (List.mem tag rows.(a)) then rows.(a) <- tag :: rows.(a);
              up (Tree.parent t a)
          in
          up (Tree.parent t d));
      Tax.equal (Tax.build t) (Tax.of_rows ~n_tags:(Tree.n_tags t) rows))

let prop_codec_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"codec roundtrip" doc_gen (fun t ->
      let idx = Tax.build t in
      match Codec.of_bytes (Codec.to_bytes idx) with
      | Ok idx' -> Tax.equal idx idx'
      | Error _ -> false)

let qsuite =
  Qcheck_seed.to_alcotest
    [ prop_membership_correct; prop_build_equals_naive_rows;
      prop_codec_roundtrip ]

let () =
  Alcotest.run "smoqe_tax"
    [
      ( "index",
        [
          Alcotest.test_case "membership" `Quick test_build_membership;
          Alcotest.test_case "recursive tags" `Quick test_recursive_tags;
          Alcotest.test_case "listing" `Quick test_descendant_tags_listing;
          Alcotest.test_case "unknown name" `Quick test_mem_name_unknown;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_codec_file_roundtrip;
          Alcotest.test_case "corrupt input" `Quick test_codec_corrupt;
          Alcotest.test_case "compression" `Quick test_codec_compresses_repetition;
        ] );
      ("properties", qsuite);
    ]
