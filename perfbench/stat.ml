(* Order statistics and the report. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [None] when fewer than ten samples lie beyond
   it (the highest percentile worth quoting has ten samples past it). *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  if n = 0 || n - rank < 10 then None else Some a.(rank - 1)

(* Plain median, for small sets (set-up repetitions, span durations). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then None
  else if n mod 2 = 1 then Some a.(n / 2)
  else Some ((a.((n / 2) - 1) +. a.(n / 2)) /. 2.)

let mean xs =
  match xs with
  | [] -> None
  | _ -> Some (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

let ratio num den = if den <= 0. then None else Some (num /. den)

(* A reported metric: its value (if it applies and has enough samples),
   unit and sample count. *)
type metric = { name : string; value : float option; unit_ : string; samples : int }

let metric name unit_ samples value = { name; value; unit_; samples }

let json_number = function
  | Some v when Float.is_finite v -> Printf.sprintf "%.17g" v
  | Some _ | None -> "null"

let print_table title metrics =
  Printf.printf "# -- %s --\n" title;
  Printf.printf "# %-28s %16s %-8s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m ->
      Printf.printf "# %-28s %16s %-8s %d\n" m.name
        (match m.value with Some v -> Printf.sprintf "%.4f" v | None -> "null")
        m.unit_ m.samples)
    metrics

(* The last line of standard output: the declared metrics, in order. *)
let print_result ~correct ~attempted ~failed ~declared metrics =
  let find name = List.find_opt (fun m -> m.name = name) metrics in
  let fields =
    List.map
      (fun name ->
        match find name with
        | Some m ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
            (json_number m.value) m.unit_
        | None -> Printf.sprintf "%S: {\"value\": null, \"unit\": \"\"}" name)
      declared
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
