(* Fixed-seed fuzz smoke: the CI face of Smoqe_workload.Fuzz.  Run via
   [dune build @fuzz] (~10s).  Every generated input must satisfy the
   totality contract (DESIGN.md §12): parse with DOM ≡ StAX agreement or
   fail with a positioned/typed error.  Any [Bug] verdict fails the run
   and prints the offending input for triage — commit it under
   test/corpus/regressions/ once fixed.  It then checks the exposure
   bitmap against materialization provenance, and the restricted
   exposure of id ranges ([Exposure.region]) against it, on 10,000
   random draws.  Every generated input must also give the same events,
   or the same positioned error, in one piece and through
   [Pull.of_channel] refills of 1, 2 and 7 bytes: the cursor reads a
   token in place only when it lies wholly in the buffer, so each name
   and end tag must read alike whole and cut by a refill. *)

module Fuzz = Smoqe_workload.Fuzz
module Tree = Smoqe_xml.Tree
module Derive = Smoqe_security.Derive
module Exposure = Smoqe_security.Exposure
module Materialize = Smoqe_security.Materialize
module Random_dtd = Smoqe_workload.Random_dtd
module Docgen = Smoqe_workload.Docgen
module Pull = Smoqe_xml.Pull

let pull_outcome pull =
  match Pull.fold pull ~init:[] ~f:(fun acc e -> e :: acc) with
  | evs -> Ok (List.rev evs)
  | exception Pull.Error (l, c, m) -> Error (Printf.sprintf "%d:%d: %s" l c m)
  | exception e -> Error ("raised " ^ Printexc.to_string e)

let describe = function
  | Ok evs -> Printf.sprintf "%d events" (List.length evs)
  | Error e -> e

(* The chunk-boundary battery of test/conformance.ml over the inputs of
   [Fuzz.run ~seed ~count]: the same draws, in the same order.  Returns
   the first input whose outcome depends on the chunk size. *)
let chunk_check ~seed ~count =
  let rng = Random.State.make [| seed |] in
  let path = Filename.temp_file "smoqe_fuzz" ".xml" in
  let bad = ref None in
  for _ = 1 to count do
    let input = Fuzz.generate rng in
    let keep_ws = Random.State.bool rng in
    ignore (Random.State.int rng 3 : int);
    if !bad = None then begin
      Out_channel.with_open_bin path (fun oc -> output_string oc input);
      let whole = pull_outcome (Pull.of_string ~keep_ws input) in
      List.iter
        (fun chunk_size ->
          let got =
            In_channel.with_open_bin path (fun ic ->
                pull_outcome (Pull.of_channel ~keep_ws ~chunk_size ic))
          in
          if !bad = None && got <> whole then
            bad :=
              Some
                (Printf.sprintf "chunk_size %d (keep_ws:%b): %s, whole: %s"
                   chunk_size keep_ws (describe got) (describe whole), input))
        [ 1; 2; 7 ]
    end
  done;
  Sys.remove path;
  !bad

(* The exposure bitmap must mark exactly the materialization provenance
   ids, and a region exactly those of its range: the soak version of
   test_security's 2,000-draw checks, on 10,000 further draws built the
   same way. *)
let exposure_check seed =
  let dtd =
    Random_dtd.generate ~seed ~n_types:(3 + (seed mod 5))
      ~recursion:(seed mod 2 = 0) ()
  in
  match
    ( Derive.derive (Random_dtd.random_policy ~seed:((seed * 3) + 1) dtd),
      Docgen.generate ~seed:((seed * 5) + 2) ~max_depth:8 ~fanout:2 dtd )
  with
  | exception (Derive.Unsupported _ | Docgen.No_finite_expansion _) ->
    `Skipped
  | view, doc ->
    let e = Exposure.compute view doc in
    let prov = Array.make (Tree.n_nodes doc) false in
    Array.iter
      (fun n -> prov.(n) <- true)
      (Materialize.materialize view doc).Materialize.provenance;
    let rec first n =
      if n >= Tree.n_nodes doc then `Same
      else if Exposure.mem e n <> prov.(n) then `Differs n
      else first (n + 1)
    in
    (* and the restricted σ-walk of a subtree and of an arbitrary id
       range must be the whole-document one cut to that range *)
    let n_nodes = Tree.n_nodes doc in
    let rng = Random.State.make [| seed; 0x7e9 |] in
    let a = Random.State.int rng n_nodes
    and b = Random.State.int rng n_nodes
    and c = Random.State.int rng n_nodes in
    let region_differs (lo, hi) =
      let r = Exposure.region view doc ~lo ~hi in
      let rec go n =
        if n >= n_nodes then None
        else if Exposure.mem r n <> (n >= lo && n < hi && prov.(n)) then
          Some (`Region_differs (lo, hi, n))
        else go (n + 1)
      in
      go 0
    in
    (match first 0 with
    | `Same ->
      Option.value ~default:`Same
        (List.find_map region_differs
           [ (a, Tree.subtree_end doc a); (min b c, max b c + 1) ])
    | d -> d)

let getenv_int name default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some v -> (try int_of_string v with Failure _ -> default)

let excerpt s =
  let s = String.escaped s in
  if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

let () =
  let seed = getenv_int "SMOQE_FUZZ_SEED" 20060806 in
  let count = getenv_int "SMOQE_FUZZ_COUNT" 12_000 in
  let t0 = Unix.gettimeofday () in
  let r = Fuzz.run ~seed ~count () in
  Printf.printf "%s (seed %d, %.1fs)\n"
    (Fmt.str "%a" Fuzz.pp_report r)
    seed
    (Unix.gettimeofday () -. t0);
  if r.Fuzz.bugs <> [] then begin
    List.iter
      (fun (input, diagnosis) ->
        Printf.eprintf "BUG: %s\n  input: %s\n%!" diagnosis (excerpt input))
      r.Fuzz.bugs;
    exit 1
  end;
  (* A fuzzer that rejects everything is as broken as one that accepts
     everything: make sure the generator mix keeps exercising the accept
     path. *)
  if r.Fuzz.accepted = 0 || r.Fuzz.rejected = 0 then begin
    prerr_endline "fuzz: degenerate verdict mix — generator drift?";
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  (match chunk_check ~seed ~count with
  | Some (diagnosis, input) ->
    Printf.eprintf "BUG: %s\n  input: %s\n%!" diagnosis (excerpt input);
    exit 1
  | None ->
    Printf.printf "chunk sizes 1, 2, 7 = one piece, on %d inputs (%.1fs)\n"
      count
      (Unix.gettimeofday () -. t0));
  let compared = ref 0 in
  for seed = 2_001 to 12_000 do
    match exposure_check seed with
    | `Skipped -> ()
    | `Same -> incr compared
    | `Differs n ->
      Printf.eprintf
        "BUG: exposure differs from provenance at node %d (draw %d)\n" n seed;
      exit 1
    | `Region_differs (lo, hi, n) ->
      Printf.eprintf
        "BUG: region [%d, %d) differs from provenance at node %d (draw %d)\n"
        lo hi n seed;
      exit 1
  done;
  Printf.printf "exposure = provenance and region = its cut, on %d draws\n"
    !compared
