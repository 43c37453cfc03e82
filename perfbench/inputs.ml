(* Everything the benchmark feeds the program, made from the seed before
   any timing starts: the hospital document, the DTD and policy text, and
   the request streams. *)

module Tree = Smoqe_xml.Tree
module Dtd = Smoqe_xml.Dtd
module Hospital = Smoqe_workload.Hospital
module Queries = Smoqe_workload.Queries

let n_patients = 1600
let recursion_depth = 3
let staff_sessions = 4
let group = "staff"

let document ~seed =
  Hospital.generate ~seed ~n_patients ~recursion_depth ()

let dtd_text = Dtd.to_string Hospital.dtd
let policy_text = Hospital.policy_text

(* The member view queries V1–V5 and the admin queries Q1–Q8. *)
let view_queries = Array.of_list (List.map snd Queries.view_suite)
let admin_queries = Array.of_list (List.map snd Queries.suite)

type principal =
  | Admin
  | Staff of int  (** index of the member session *)

type read = {
  who : principal;
  text : string;
  adhoc : bool;  (** built from a template with a fresh constant *)
}

type op =
  | Read of read
  | Batch of int  (** member [run_many] of V1–V5 on this staff session *)
  | Replace_med of int
      (** member replace of the [n]th (mod count) exposed non-autism
          medication, resolved against the document when the op runs *)
  | Insert_patient of Tree.source  (** admin insert under the root *)
  | Delete_inserted  (** admin delete of the earliest outstanding insert *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The 13 fixed queries in Zipf rank order (s = 1), member and admin
   interleaved.  The order is fixed rather than seeded, so that every seed
   serves the same mix and seeds differ only in data and arrival order. *)
let fixed_by_rank =
  let rec interleave xs ys =
    match xs, ys with
    | x :: xs, y :: ys -> x :: y :: interleave xs ys
    | [], rest | rest, [] -> rest
  in
  Array.of_list
    (interleave
       (List.map (fun q -> (true, q)) (Array.to_list view_queries))
       (List.map (fun q -> (false, q)) (Array.to_list admin_queries)))

(* Split [total] slots in proportion to [weights] (largest remainder). *)
let apportion total weights =
  let sum = Array.fold_left ( +. ) 0. weights in
  let exact = Array.map (fun w -> float_of_int total *. w /. sum) weights in
  let counts = Array.map (fun x -> int_of_float (Float.floor x)) exact in
  let short = total - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init (Array.length weights) Fun.id in
  Array.sort
    (fun a b -> compare (exact.(b) -. Float.floor exact.(b)) (exact.(a) -. Float.floor exact.(a)))
    by_remainder;
  for k = 0 to short - 1 do
    let i = by_remainder.(k) in
    counts.(i) <- counts.(i) + 1
  done;
  counts

let staff rng = Staff (Random.State.int rng staff_sessions)

(* Ad-hoc reads: a template with a fresh constant, so the text misses
   the plan cache (and, past 128 distinct texts, evicts from it). *)
let adhoc rng =
  if Random.State.bool rng then
    let med =
      if Random.State.int rng 10 < 3 then
        List.nth Hospital.medications
          (Random.State.int rng (List.length Hospital.medications))
      else Printf.sprintf "med-%03d" (Random.State.int rng 300)
    in
    let text =
      if Random.State.bool rng then
        Printf.sprintf "patient[treatment/medication = '%s']/treatment/medication"
          med
      else
        Printf.sprintf
          "(patient/parent)*/patient[treatment/medication = '%s']/treatment/medication"
          med
    in
    { who = staff rng; text; adhoc = true }
  else
    let date =
      Printf.sprintf "2006-%02d-%02d"
        (1 + Random.State.int rng 12)
        (1 + Random.State.int rng 28)
    in
    let text =
      if Random.State.bool rng then
        Printf.sprintf "patient[visit/date = '%s']/pname" date
      else Printf.sprintf "//visit[date = '%s']/treatment/medication" date
    in
    { who = Admin; text; adhoc = true }

(* A fresh top-level patient, shaped like the generator's. *)
let new_patient rng k =
  let meds = Array.of_list Hospital.medications in
  let visit () =
    let treatment =
      if Random.State.int rng 100 < 60 then
        Tree.E ("medication", [], [ Tree.T meds.(Random.State.int rng 4) ])
      else
        Tree.E ("test", [], [ Tree.T (Printf.sprintf "t%d" (Random.State.int rng 100)) ])
    in
    Tree.E
      ( "visit",
        [],
        [
          Tree.E ("treatment", [], [ treatment ]);
          Tree.E
            ( "date",
              [],
              [ Tree.T (Printf.sprintf "2006-%02d-%02d"
                          (1 + Random.State.int rng 12)
                          (1 + Random.State.int rng 28)) ] );
        ] )
  in
  let rec patient depth =
    let visits = List.init (1 + Random.State.int rng 3) (fun _ -> visit ()) in
    let parents =
      if depth > 0 && Random.State.int rng 100 < 70 then
        [ Tree.E ("parent", [], [ patient (depth - 1) ]) ]
      else []
    in
    Tree.E
      ( "patient",
        [],
        Tree.E ("pname", [], [ Tree.T (Printf.sprintf "New-%d" k) ])
        :: (visits @ parents) )
  in
  patient recursion_depth

(* Long enough that no run reaches its end. *)
let stream_length = 40_000

(* The serving request stream, in blocks of 100 ops with fixed
   proportions shuffled within the block: 10 % member batches, 20 %
   ad-hoc reads, the rest fixed reads split by Zipf rank.  With
   [writes], 20 % of each block are secure updates instead (the reads
   keep their proportions among themselves): every other write is a
   member replace, the others alternate admin insert and delete, so the
   document never holds more than one extra patient. *)
let serve_stream ~seed ~writes =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let n_write, n_batch, n_adhoc = if writes then (20, 8, 16) else (0, 10, 20) in
  let n_fixed = 100 - n_write - n_batch - n_adhoc in
  let zipf = apportion n_fixed (Array.mapi (fun i _ -> 1. /. float_of_int (i + 1)) fixed_by_rank) in
  let writes_so_far = ref 0 and inserted = ref 0 in
  let write () =
    incr writes_so_far;
    if !writes_so_far mod 2 = 1 then Replace_med (Random.State.bits rng)
    else if !writes_so_far mod 4 = 2 then begin
      incr inserted;
      Insert_patient (new_patient rng !inserted)
    end
    else Delete_inserted
  in
  let block () =
    let slots =
      Array.concat
        [ Array.make n_write `Write; Array.make n_batch `Batch;
          Array.make n_adhoc `Adhoc;
          Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c (`Fixed i)) zipf)) ]
    in
    shuffle rng slots;
    Array.map
      (function
        | `Write -> write ()
        | `Batch -> Batch (Random.State.int rng staff_sessions)
        | `Adhoc -> Read (adhoc rng)
        | `Fixed i ->
          let member, text = fixed_by_rank.(i) in
          Read { who = (if member then staff rng else Admin); text; adhoc = false })
      slots
  in
  Array.concat (List.init (stream_length / 100) (fun _ -> block ()))

(* The one-shot stream: V1–V5 in seeded rounds, each query equally often. *)
let oneshot_stream ~seed =
  let rng = Random.State.make [| seed; 0x0e5 |] in
  let n = Array.length view_queries in
  Array.concat
    (List.init (stream_length / n) (fun _ ->
         let round = Array.init n Fun.id in
         shuffle rng round;
         round))
