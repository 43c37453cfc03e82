(* The benchmark's clock and its in-memory span recorder.

   Every time the benchmark takes comes from [now], CLOCK_MONOTONIC in
   nanoseconds.  Spans are kept in memory while a traced run executes and
   written out only when it ends, so writing them costs the run nothing. *)

let now () = Monotonic_clock.now ()

let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span of its request *)
  req : int;  (** request id shared by every span of one op *)
  name : string;
  start : int64;
  mutable stop : int64;
}

type recorder = {
  mutable spans : span list;  (* newest first *)
  mutable open_ids : int list;
  mutable next_id : int;
  mutable req : int;
}

let recorder () = { spans = []; open_ids = []; next_id = 0; req = 0 }

let start_request r req = r.req <- req

(* [record r name f] runs [f] inside a span named [name], nested under
   whichever span is open. *)
let record r name f =
  let parent = match r.open_ids with p :: _ -> p | [] -> -1 in
  let s =
    { id = r.next_id; parent; req = r.req; name; start = now (); stop = 0L }
  in
  r.next_id <- r.next_id + 1;
  r.open_ids <- s.id :: r.open_ids;
  let close () =
    s.stop <- now ();
    r.open_ids <- List.tl r.open_ids;
    r.spans <- s :: r.spans
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let duration_ns s = Int64.to_float (Int64.sub s.stop s.start)

(* Self time: a span's duration minus the part its children cover. *)
let self_times r =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (duration_ns s
          +. Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0.))
    r.spans;
  List.rev_map
    (fun s ->
      ( s,
        duration_ns s
        -. Option.value (Hashtbl.find_opt child_ns s.id) ~default:0. ))
    r.spans

(* Summed root-span time per request id. *)
let root_ns_by_request r =
  let by_req = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent < 0 then
        Hashtbl.replace by_req s.req
          (duration_ns s
          +. Option.value (Hashtbl.find_opt by_req s.req) ~default:0.))
    r.spans;
  by_req

let write_jsonl r path =
  let oc = open_out path in
  List.iter
    (fun (s : span) ->
      Printf.fprintf oc
        "{\"req\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.req s.id s.parent s.name s.start s.stop)
    (List.rev r.spans);
  close_out oc
