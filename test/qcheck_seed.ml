(* The one seed of the tier-1 property suites.  Every run of
   `dune runtest` draws the same cases, so a property fails on every run
   or on none, and the seed is printed with the results.  QCHECK_SEED=N
   replays seed N; QCHECK_SEED=fresh draws a new seed and prints it —
   the `@fuzz` alias runs the property groups that way. *)

let default = 2006

let seed =
  lazy
    (let s =
       match Sys.getenv_opt "QCHECK_SEED" with
       | None -> default
       | Some "fresh" ->
         Random.self_init ();
         Random.int 1_000_000_000
       | Some v -> (
         match int_of_string_opt v with
         | Some s -> s
         | None -> invalid_arg ("QCHECK_SEED: not an integer: " ^ v))
     in
     Printf.printf "qcheck seed: %d (replay with QCHECK_SEED=%d)\n%!" s s;
     s)

(* Each property gets its own generator state from the seed, so a case
   draws the same inputs whichever subset of a suite runs. *)
let to_alcotest tests =
  let seed = Lazy.force seed in
  List.map
    (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t)
    tests
