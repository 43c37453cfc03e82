(* W3C-xmlconf-style conformance harness over the committed corpus in
   test/corpus/.  The catalog is the directory layout — each case is one
   .xml file, tagged by the directory it lives in:

     corpus/valid/           well-formed XML: must be accepted, and the
                             Pull (StAX) stream must be event-for-event
                             identical to Parser.events_of_tree of the
                             DOM parse, under both keep_ws settings
     corpus/accepted/        accepted-with-events: documents beyond
                             strict XML 1.0 that this parser is
                             deliberately lenient about ("--" in
                             comments, "]]>" in text, raw control
                             bytes).  Same DOM ≡ StAX obligation.
     corpus/not-wellformed/  must be rejected, by both modes, with a
                             positioned error (line, col >= 1), and the
                             error must not depend on the chunk size
     corpus/regressions/     fuzz-found inputs, replayed against the
                             totality contract: any verdict but Bug;
                             the outcome must not depend on the chunk
                             size either

   Run via `dune runtest` or `dune build @conformance`. *)

module Fuzz = Smoqe_workload.Fuzz

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let cases_of dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
    |> List.map (fun f -> Filename.concat dir f)
  else []

let n_cases = ref 0
let n_failures = ref 0

let failf path fmt =
  Printf.ksprintf
    (fun msg ->
      incr n_failures;
      Printf.eprintf "FAIL %s: %s\n%!" path msg)
    fmt

let check_class ~dir ~expect =
  let paths = cases_of dir in
  List.iter
    (fun path ->
      incr n_cases;
      let input = read_file path in
      expect path input)
    paths;
  List.length paths

let expect_accepted path input =
  List.iter
    (fun keep_ws ->
      match Fuzz.check ~keep_ws input with
      | Fuzz.Accepted n ->
        if n = 0 then failf path "accepted with an empty event stream"
      | Fuzz.Rejected (l, c, m) ->
        failf path "rejected (keep_ws:%b) at %d:%d: %s" keep_ws l c m
      | Fuzz.Budgeted w -> failf path "budget trip without a budget: %s" w
      | Fuzz.Bug m -> failf path "totality violation: %s" m)
    [ false; true ]

(* Chunk-boundary battery: a valid document must yield the identical
   event stream whether parsed in one piece or through [of_channel]
   refills of 1, 2 or 7 bytes — token spans and the scratch decoder must
   never depend on where a refill lands relative to a token. *)
module Pull = Smoqe_xml.Pull

let events_of pull =
  List.rev (Pull.fold pull ~init:[] ~f:(fun acc ev -> ev :: acc))

let expect_chunked path input =
  List.iter
    (fun keep_ws ->
      let reference = events_of (Pull.of_string ~keep_ws input) in
      List.iter
        (fun chunk_size ->
          let ic = open_in_bin path in
          match events_of (Pull.of_channel ~keep_ws ~chunk_size ic) with
          | got ->
            close_in ic;
            if got <> reference then
              failf path "chunk_size %d (keep_ws:%b) changes the event stream"
                chunk_size keep_ws
          | exception Pull.Error (l, c, m) ->
            close_in_noerr ic;
            failf path "chunk_size %d (keep_ws:%b) rejected at %d:%d: %s"
              chunk_size keep_ws l c m
          | exception e ->
            close_in_noerr ic;
            failf path "chunk_size %d (keep_ws:%b) raised %s" chunk_size
              keep_ws (Printexc.to_string e))
        [ 1; 2; 7 ])
    [ false; true ]

let expect_accepted_chunked path input =
  expect_accepted path input;
  expect_chunked path input

(* Chunk-boundary battery for rejections: the outcome of a streaming
   parse — its events, or its [Pull.Error (line, col, msg)] — must be
   the same in one piece as through [of_channel] refills of 1, 2, 7 or
   65536 bytes.  Positions are settled lazily and window mode discards
   consumed bytes on refill, so this pins that no byte is counted twice
   or lost wherever a refill lands. *)
type outcome =
  | Parsed of Pull.event list
  | Error_at of int * int * string
  | Raised of string

let outcome_of f =
  match f () with
  | evs -> Parsed evs
  | exception Pull.Error (l, c, m) -> Error_at (l, c, m)
  | exception e -> Raised (Printexc.to_string e)

let describe_outcome = function
  | Parsed evs -> Printf.sprintf "%d events" (List.length evs)
  | Error_at (l, c, m) -> Printf.sprintf "error at %d:%d: %s" l c m
  | Raised e -> "raised " ^ e

let expect_chunk_independent path input =
  List.iter
    (fun keep_ws ->
      let reference =
        outcome_of (fun () -> events_of (Pull.of_string ~keep_ws input))
      in
      List.iter
        (fun chunk_size ->
          let ic = open_in_bin path in
          let got =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                outcome_of (fun () ->
                    events_of (Pull.of_channel ~keep_ws ~chunk_size ic)))
          in
          if got <> reference then
            failf path "chunk_size %d (keep_ws:%b): %s, in one piece: %s"
              chunk_size keep_ws (describe_outcome got)
              (describe_outcome reference))
        [ 1; 2; 7; 65536 ])
    [ false; true ]

let expect_rejected path input =
  (match Fuzz.check input with
  | Fuzz.Rejected (l, c, _) ->
    if l < 1 || c < 1 then failf path "rejection lacks a position (%d:%d)" l c
  | Fuzz.Accepted _ -> failf path "accepted a not-wellformed document"
  | Fuzz.Budgeted w -> failf path "budget trip without a budget: %s" w
  | Fuzz.Bug m -> failf path "totality violation: %s" m);
  expect_chunk_independent path input

let expect_total path input =
  (* Fuzz-found regressions: any typed outcome is fine, a Bug is not —
     and the verdict must hold under a small budget too. *)
  (match Fuzz.check input with
  | Fuzz.Bug m -> failf path "totality violation: %s" m
  | Fuzz.Accepted _ | Fuzz.Rejected _ | Fuzz.Budgeted _ -> ());
  match
    Fuzz.check
      ~mk_budget:(fun () ->
        Smoqe_robust.Budget.create ~max_depth:512 ~max_nodes:200_000 ())
      input
  with
  | Fuzz.Bug m -> failf path "totality violation (budgeted): %s" m
  | Fuzz.Accepted _ | Fuzz.Rejected _ | Fuzz.Budgeted _ ->
    expect_chunk_independent path input

let () =
  let valid = check_class ~dir:"corpus/valid" ~expect:expect_accepted_chunked in
  let lenient =
    check_class ~dir:"corpus/accepted" ~expect:expect_accepted_chunked
  in
  let nwf =
    check_class ~dir:"corpus/not-wellformed" ~expect:expect_rejected
  in
  let regr = check_class ~dir:"corpus/regressions" ~expect:expect_total in
  Printf.printf
    "conformance: %d cases (%d valid, %d accepted-with-events, %d \
     not-wellformed, %d regressions), %d failure(s)\n"
    !n_cases valid lenient nwf regr !n_failures;
  (* An empty catalog means the corpus was not copied next to the runner
     — that is a harness bug, not a pass. *)
  if valid = 0 || nwf = 0 then begin
    prerr_endline "conformance: corpus missing or empty";
    exit 1
  end;
  if !n_failures > 0 then exit 1
