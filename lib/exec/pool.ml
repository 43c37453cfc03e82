(* Fork-join: the caller and [min domains n - 1] spawned helpers claim
   task indices from one shared counter.  Each slot of [results] is
   written by exactly one domain, and [Domain.join] orders those writes
   before the caller reads them.  With no helpers the caller claims
   0, 1, ... in order, so [domains <= 1] is the sequential loop. *)

let run ~domains tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let results = Array.make n (Error Exit) in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        (match tasks.(i) () with v -> Ok v | exception e -> Error e);
      work ()
    end
  in
  let helpers =
    List.init (max 0 (min domains n - 1)) (fun _ -> Domain.spawn work)
  in
  work ();
  List.iter Domain.join helpers;
  Array.to_list results
