(* Machine-readable bench results.

   Every experiment writes a [BENCH_<id>.json] next to where the bench
   was invoked (override the directory with SMOQE_BENCH_DIR), so the
   perf trajectory — latencies, throughput, speedups, gate verdicts — is
   a diffable artifact across PRs instead of scrollback.  The writer is
   a ~60-line hand-rolled JSON emitter because the toolchain has no JSON
   dependency and these documents are flat: objects, arrays, scalars. *)

type v =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of v list
  | Obj of (string * v) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_nan f || Float.abs f = Float.infinity then
      Buffer.add_string buf "null"
    else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      vs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        emit buf x)
      fields;
    Buffer.add_char buf '}'

let write ~id v =
  let dir = Option.value (Sys.getenv_opt "SMOQE_BENCH_DIR") ~default:"." in
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" id) in
  let v =
    match v with
    | Obj fields ->
      (* Every artifact carries the process-wide GC counters at write
         time: cumulative bytes allocated (minor + major - promoted) and
         the live/peak words of the major heap — the allocation
         trajectory of the run, for diffing across PRs alongside the
         latencies. *)
      let gc =
        let s = Gc.quick_stat () in
        Obj
          [
            ("allocated_bytes", Int (int_of_float (Gc.allocated_bytes ())));
            ("minor_collections", Int s.Gc.minor_collections);
            ("major_collections", Int s.Gc.major_collections);
            ("heap_words", Int s.Gc.heap_words);
            ("top_heap_words", Int s.Gc.top_heap_words);
          ]
      in
      Obj (fields @ [ ("gc", gc) ])
    | other -> other
  in
  let buf = Buffer.create 1024 in
  emit buf v;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[%s -> %s]\n%!" id path

(* Shared order statistics for latency reporting. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  if Array.length a = 0 then nan else a.(Array.length a / 2)

let p95 xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (n * 95 / 100))
