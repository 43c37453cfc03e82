type t = {
  deadline : int; (* absolute, monotonic-clock ns; max_int = none *)
  timeout_ms : int option;
  nodes_limit : int; (* max_int = unlimited: the hot compare never fires *)
  max_cans : int option;
  max_states : int option;
  max_depth : int option;
  mutable nodes : int;
}

exception Exceeded of { what : string; limit : string }

let exceeded ~what ~limit = raise (Exceeded { what; limit })

(* Deadlines run on the monotonic clock: a wall-clock step can neither
   trip a timeout early nor extend it. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?timeout_ms ?max_nodes ?max_cans ?max_states ?max_depth () =
  let deadline =
    match timeout_ms with
    | None -> max_int
    | Some ms ->
      let now = now_ns () in
      if ms >= (max_int - now) / 1_000_000 then max_int
      else now + (ms * 1_000_000)
  in
  { deadline; timeout_ms;
    nodes_limit = Option.value max_nodes ~default:max_int;
    max_cans; max_states; max_depth; nodes = 0 }

let check_deadline t =
  if now_ns () > t.deadline then
    exceeded ~what:"timeout_ms"
      ~limit:(string_of_int (Option.value t.timeout_ms ~default:0) ^ "ms")

(* Batched form for the evaluators: the caller counts locally and settles
   every [k] units, so the per-node cost is a single local increment. *)
let tick_nodes t k =
  let n = t.nodes + k in
  t.nodes <- n;
  if n > t.nodes_limit then
    exceeded ~what:"max_nodes" ~limit:(string_of_int t.nodes_limit);
  if n lsr 8 > (n - k) lsr 8 then check_deadline t

let check_depth t depth =
  match t.max_depth with
  | Some m when depth > m -> exceeded ~what:"max_depth" ~limit:(string_of_int m)
  | Some _ | None -> ()

let check_cans t n =
  match t.max_cans with
  | Some m when n > m -> exceeded ~what:"max_cans" ~limit:(string_of_int m)
  | Some _ | None -> ()

let check_states t n =
  match t.max_states with
  | Some m when n > m -> exceeded ~what:"max_states" ~limit:(string_of_int m)
  | Some _ | None -> ()

let max_depth_limit t = Option.value t.max_depth ~default:max_int
let nodes_scanned t = t.nodes
