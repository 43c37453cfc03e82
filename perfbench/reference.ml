(* The reference kernel: a fixed yardstick run between ops, on the same
   clock and in the same process.

   The host this benchmark runs on changes speed by tens of percent for
   seconds to minutes at a time (a pure CPU loop in the same container
   swings by up to 40 %), so a run's raw latency says as much about the
   host as about the program.  Dividing by the same run's median
   reference time cancels most of that.  The kernel uses the standard
   library only, so no change to the program under test can move it, and
   it does what SMOQE's hot paths do: scan XML bytes, allocate a tree of
   element nodes, and walk it hashing tag names.  (An allocation-free
   variant tracked the host's swings less closely.) *)

type node = { tag : string; mutable kids : node list }

let build bytes =
  let n = String.length bytes in
  let root = { tag = ""; kids = [] } in
  let stack = ref [ root ] in
  let i = ref 0 in
  while !i < n - 1 do
    if bytes.[!i] = '<' then begin
      match bytes.[!i + 1] with
      | '/' -> stack := List.tl !stack
      | '?' | '!' -> ()
      | _ ->
        let j = ref (!i + 1) in
        while !j < n && (match bytes.[!j] with '>' | ' ' | '/' -> false | _ -> true) do
          incr j
        done;
        let node = { tag = String.sub bytes (!i + 1) (!j - !i - 1); kids = [] } in
        let parent = List.hd !stack in
        parent.kids <- node :: parent.kids;
        while !j < n && bytes.[!j] <> '>' do
          incr j
        done;
        if bytes.[!j - 1] <> '/' then stack := node :: !stack;
        i := !j
    end;
    incr i
  done;
  root

let rec walk counts node =
  let h = Hashtbl.hash node.tag in
  Hashtbl.replace counts h (1 + Option.value (Hashtbl.find_opt counts h) ~default:0);
  List.iter (walk counts) node.kids

(* One run of the kernel over [bytes]; its duration in ms. *)
let time_ms bytes =
  let t0 = Span.now () in
  let counts = Hashtbl.create 64 in
  walk counts (build bytes);
  ignore (Sys.opaque_identity counts);
  Span.ns_since t0 /. 1e6
