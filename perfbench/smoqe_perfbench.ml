(* The SMOQE benchmark: four user-facing workloads, each a closed loop of
   one client in one process.

     smoqe_perfbench --workload NAME --seed N --seconds S --trace 0|1

   serve_read    warm read serving through Session over a store
   serve_mixed   the same, with secure updates at about 1 op in 5
   oneshot_dom   cold [smoqe query --dtd --policy --group --index] requests
   oneshot_stax  the same cold request in StAX mode, without an index

   With [--trace 0] every op goes through the public surface (Session,
   or the Engine call sequence of [smoqe query]) and the end-to-end
   metrics are reported.  With [--trace 1] half the time runs untraced,
   for the per-op-type baseline, and half runs the traced replay
   ({!Replay}), for the per-layer metrics.  Every answer is checked
   against the materialize-then-query oracle outside the timed spans
   (in serve_mixed, a seeded sample of them).  The last line of standard
   output is the JSON result; everything before it is the report. *)

module Tree = Smoqe_xml.Tree
module Pull = Smoqe_xml.Pull
module Serializer = Smoqe_xml.Serializer
module Dtd_parser = Smoqe_xml.Dtd_parser
module Policy = Smoqe_security.Policy
module Derive = Smoqe_security.Derive
module Stats = Smoqe_hype.Stats
module Engine = Smoqe.Engine
module Session = Smoqe.Session
module Store = Smoqe_store.Store
module Update = Smoqe_update.Update
module Error = Smoqe_robust.Error
module Hospital = Smoqe_workload.Hospital

(* The metrics BENCHMARK.json declares, in its order. *)
let declared_e2e =
  [ "setup_s"; "ops_per_ref"; "read_p50_ref"; "read_p90_ref"; "peak_heap_mb" ]

let declared_layers =
  [ "xml.parse_ms"; "xml.lex_mb_per_s"; "security.policy_parse_ms";
    "security.derive_ms"; "rxpath.parse_us"; "plan.canon_us";
    "rewrite.rewrite_us"; "automata.optimize_us"; "automata.analysis_us";
    "automata.states"; "hype.ns_per_entered_node"; "hype.dead_skip_ratio";
    "hype.memo_hit_ratio"; "hype.cans_size"; "hype.answers_per_candidate";
    "xml.answer_bytes_per_read"; "core.unaccounted_ms"; "gc.alloc_mb_per_op";
    "gc.major_per_op"; "trace.coverage"; "trace.overhead" ]

let setup_reps = 11
let mixed_check_every = 8

let ok = function Ok v -> v | Error msg -> failwith msg

(* --- the run's bookkeeping ------------------------------------------------ *)

type acc = {
  mutable timeline : ([ `Read | `Batch | `Write ] * float * float) list;
      (** every timed op's kind, latency in ms and end time (ns), newest
          first *)
  by_type : (string, float list) Hashtbl.t;  (** op type -> latencies, ms *)
  mutable busy_ns : float;
  mutable attempted : int;
  mutable failed : int;
  mutable alloc_words : float;
  mutable majors : int;
  mutable plan_hits : int;
  mutable plan_probes : int;
  mutable answer_bytes : float list;
  mutable dropped : float list;
  mutable traced : (string * int * float) list;  (** type, request, wall ns *)
  mutable refs : (float * float) list;
      (** reference kernel runs: end time (ns) and duration (ms) *)
}

let acc () =
  { timeline = []; by_type = Hashtbl.create 8;
    busy_ns = 0.; attempted = 0; failed = 0; alloc_words = 0.;
    majors = 0; plan_hits = 0; plan_probes = 0; answer_bytes = []; dropped = [];
    traced = []; refs = [] }

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[])

(* Time one op on the monotonic clock, with its allocation. *)
let timed acc f =
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = Span.now () in
  let v = f () in
  let ns = Span.ns_since t0 in
  acc.alloc_words <- acc.alloc_words +. (words () -. w0);
  acc.majors <- acc.majors + (Gc.quick_stat ()).Gc.major_collections - m0;
  acc.busy_ns <- acc.busy_ns +. ns;
  acc.attempted <- acc.attempted + 1;
  (v, ns)

(* Time one replayed op; its spans carry request id [req]. *)
let traced acc ~req ~op_type f =
  let t0 = Span.now () in
  let v = match f () with v -> Ok v | exception Replay.Failed msg -> Error msg in
  let ns = Span.ns_since t0 in
  acc.busy_ns <- acc.busy_ns +. ns;
  acc.attempted <- acc.attempted + 1;
  acc.traced <- (op_type, req, ns) :: acc.traced;
  v

let record acc ~kind ~op_type ns =
  let ms = ns /. 1e6 in
  acc.timeline <- (kind, ms, Int64.to_float (Span.now ())) :: acc.timeline;
  push acc.by_type op_type ms

let fail acc what =
  acc.failed <- acc.failed + 1;
  Printf.eprintf "perfbench: failed op: %s\n%!" what

let mismatch acc what = fail acc ("oracle mismatch: " ^ what)

let reference_every_ns = 1e8

(* Run [step] until the timed ops add up to [seconds], with the reference
   kernel over [reference] once at the start and then every 100 ms of
   timed work, outside the op timings. *)
let run_for ~seconds ~reference acc step =
  let budget = seconds *. 1e9 in
  let start = acc.busy_ns in
  let next_ref = ref 0. in
  let i = ref 0 in
  while acc.busy_ns -. start < budget do
    if acc.busy_ns -. start >= !next_ref then begin
      let ms = Reference.time_ms reference in
      acc.refs <- (Int64.to_float (Span.now ()), ms) :: acc.refs;
      next_ref := !next_ref +. reference_every_ns
    end;
    step !i;
    incr i
  done;
  !i

(* --- the work directory ----------------------------------------------------- *)

let out_dir = "perfbench-out"

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let work_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let dir = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  if Sys.file_exists dir then remove_tree dir;
  Sys.mkdir dir 0o755;
  dir

(* --- serving ------------------------------------------------------------------ *)

type server = {
  store : Store.t;
  admin : Session.t;
  staff : Session.t array;
}

let engine s = Store.engine s.store

let session s = function
  | Inputs.Admin -> s.admin
  | Inputs.Staff i -> s.staff.(i)

let member = function Inputs.Admin -> false | Inputs.Staff _ -> true

let run_read s text who =
  Session.run_robust (session s who) ~mode:Engine.Dom ~use_index:true text

let run_batch s i =
  Session.run_many_robust s.staff.(i) ~mode:Engine.Dom ~use_index:true
    (Array.to_list Inputs.view_queries)

(* Open the store, log in, and make one untimed warm-up pass: every fixed
   query once and one batch. *)
let open_server dir =
  let store = ok (Store.open_dir dir) in
  let admin = ok (Store.login store Session.Admin) in
  let staff =
    Array.init Inputs.staff_sessions (fun _ ->
        ok (Store.login store (Session.Member Inputs.group)))
  in
  let s = { store; admin; staff } in
  Array.iter (fun q -> ignore (run_read s q (Inputs.Staff 0))) Inputs.view_queries;
  Array.iter (fun q -> ignore (run_read s q Inputs.Admin)) Inputs.admin_queries;
  ignore (run_batch s 0);
  s

(* The exposed medications a member may rewrite without changing anyone's
   visibility: non-autism medications of visible top-level patients. *)
let medication_targets tree =
  let elems n tag =
    List.filter
      (fun c -> Tree.is_element tree c && Tree.name tree c = tag)
      (Tree.children tree n)
  in
  let meds p =
    List.concat_map
      (fun v -> List.concat_map (fun tr -> elems tr "medication") (elems v "treatment"))
      (elems p "visit")
  in
  List.concat_map
    (fun p ->
      let ms = meds p in
      if List.exists (fun m -> Tree.value tree m = "autism") ms then
        List.filter (fun m -> Tree.value tree m <> "autism") ms
      else [])
    (elems Tree.root "patient")
  |> Array.of_list

let next_medication = function
  | "headache" -> "insomnia"
  | "insomnia" -> "flu"
  | _ -> "headache"

(* An abstract write, resolved against the current document: the update
   op, whether a member issues it, its op type, and the same edit for the
   benchmark's shadow copy of the document. *)
let resolve_write shadow = function
  | Inputs.Replace_med pick ->
    let targets = medication_targets shadow in
    let n = targets.(pick mod Array.length targets) in
    let src =
      Tree.E ("medication", [], [ Tree.T (next_medication (Tree.value shadow n)) ])
    in
    ( Update.Replace (Update.By_id n, src), n, Some (pick mod Inputs.staff_sessions),
      "write.replace", fun t -> Tree.replace_subtree t n src )
  | Inputs.Insert_patient src ->
    ( Update.Insert { parent = Update.By_id Tree.root; before = None; source = src },
      Tree.root, None, "write.insert",
      fun t -> Tree.insert_subtree t ~parent:Tree.root src )
  | Inputs.Delete_inserted ->
    let n = List.nth (Tree.children shadow Tree.root) Inputs.n_patients in
    (Update.Delete (Update.By_id n), n, None, "write.delete", fun t -> Tree.delete_subtree t n)
  | Inputs.Read _ | Inputs.Batch _ -> invalid_arg "resolve_write"

(* Per-run oracle state: the shadow document, its version's oracle, and
   which reads to check. *)
type checker = {
  view : Derive.view;
  mutable shadow : Tree.t;
  mutable oracle : Oracle.t;
  sample : unit -> bool;
}

let checker ~seed ~every doc =
  let view = Derive.derive Hospital.policy in
  let rng = Random.State.make [| seed; 0xc4ec |] in
  { view; shadow = doc; oracle = Oracle.create doc view;
    sample = (fun () -> every <= 1 || Random.State.int rng every = 0) }

let advance ck edit =
  ck.shadow <- edit ck.shadow;
  ck.oracle <- Oracle.create ck.shadow ck.view

let check_read acc ck buf ~member ~text ids =
  if not (Oracle.matches ck.oracle ~member text ~ids ~bytes:(Buffer.contents buf))
  then mismatch acc text

let check_batch acc ck buf answers =
  List.iteri
    (fun i (ids, xmls) ->
      Oracle.write_answers buf xmls;
      check_read acc ck buf ~member:true ~text:Inputs.view_queries.(i) ids)
    answers

(* One op through the public surface. *)
let serve_op s ck acc buf op =
  match op with
  | Inputs.Read r ->
    let res, ns =
      timed acc (fun () ->
          let res = run_read s r.Inputs.text r.Inputs.who in
          Result.iter (fun o -> Oracle.write_answers buf o.Engine.answer_xml) res;
          res)
    in
    record acc ~kind:`Read ~op_type:(if r.Inputs.adhoc then "read.adhoc" else "read") ns;
    (match res with
    | Error e -> fail acc (Error.to_string e)
    | Ok o ->
      acc.plan_probes <- acc.plan_probes + 1;
      acc.plan_hits <- acc.plan_hits + o.Engine.stats.Stats.plan_cache_hit;
      acc.answer_bytes <- float_of_int (Buffer.length buf) :: acc.answer_bytes;
      if ck.sample () then
        check_read acc ck buf ~member:(member r.Inputs.who) ~text:r.Inputs.text
          o.Engine.answers)
  | Inputs.Batch i ->
    let (results, stats), ns = timed acc (fun () -> run_batch s i) in
    record acc ~kind:`Batch ~op_type:"batch" ns;
    acc.plan_probes <- acc.plan_probes + 1;
    acc.plan_hits <- acc.plan_hits + stats.Stats.plan_cache_hit;
    (match Array.find_map (function Error e -> Some e | Ok _ -> None) results with
    | Some e -> fail acc (Error.to_string e)
    | None ->
      if ck.sample () then
        check_batch acc ck buf
          (Array.to_list results
          |> List.map (fun o ->
                 let o = Result.get_ok o in
                 (o.Engine.answers, o.Engine.answer_xml))))
  | Inputs.Replace_med _ | Inputs.Insert_patient _ | Inputs.Delete_inserted ->
    let op, _, who, op_type, edit = resolve_write ck.shadow op in
    let sess = match who with Some i -> s.staff.(i) | None -> s.admin in
    let res, ns = timed acc (fun () -> Session.update_robust sess op) in
    record acc ~kind:`Write ~op_type ns;
    (match res with
    | Error e -> fail acc (Error.to_string e)
    | Ok report ->
      acc.dropped <- float_of_int report.Engine.up_plans_dropped :: acc.dropped;
      advance ck edit)

(* One op through the traced replay. *)
let replay_op rp ck acc buf req op =
  Span.start_request rp.Replay.r req;
  match op with
  | Inputs.Read r ->
    let member = member r.Inputs.who in
    (match
       traced acc ~req ~op_type:(if r.Inputs.adhoc then "read.adhoc" else "read")
         (fun () ->
           let ids, xmls = Replay.read rp ~member r.Inputs.text in
           Oracle.write_answers buf xmls;
           ids)
     with
    | Ok ids ->
      if ck.sample () then check_read acc ck buf ~member ~text:r.Inputs.text ids
    | Error msg -> fail acc msg)
  | Inputs.Batch _ ->
    (match
       traced acc ~req ~op_type:"batch" (fun () ->
           let answers = Replay.batch rp (Array.to_list Inputs.view_queries) in
           List.iter (fun (_, xmls) -> Oracle.write_answers buf xmls) answers;
           answers)
     with
    | Ok answers -> if ck.sample () then check_batch acc ck buf answers
    | Error msg -> fail acc msg)
  | Inputs.Replace_med _ | Inputs.Insert_patient _ | Inputs.Delete_inserted ->
    let op, target, who, op_type, edit = resolve_write ck.shadow op in
    (match
       traced acc ~req ~op_type (fun () ->
           Replay.update rp ~member:(who <> None) (Update.resolve op target))
     with
    | Ok dropped ->
      acc.dropped <- float_of_int dropped :: acc.dropped;
      advance ck edit
    | Error msg -> fail acc msg)

(* --- one-shot requests ------------------------------------------------------- *)

(* The [smoqe query] call sequence for one cold request. *)
let oneshot_request ~stax ~doc_path text =
  let dtd = Dtd_parser.of_string Inputs.dtd_text in
  match Engine.of_file_robust ~dtd doc_path with
  | Error e -> Error (Error.to_string e)
  | Ok engine ->
    let ( let* ) = Result.bind in
    let* policy = Policy.of_string dtd Inputs.policy_text in
    let* () = Engine.register_policy engine ~group:Inputs.group policy in
    if not stax then Engine.build_index engine;
    Result.map_error Error.to_string
      (Engine.query_robust engine ~group:Inputs.group
         ~mode:(if stax then Engine.Stax else Engine.Dom)
         ~use_index:(not stax) text)

let oneshot_op ~stax ~doc_path ck acc buf q =
  let text = Inputs.view_queries.(q) in
  let res, ns =
    timed acc (fun () ->
        let res = oneshot_request ~stax ~doc_path text in
        Result.iter (fun o -> Oracle.write_answers buf o.Engine.answer_xml) res;
        res)
  in
  record acc ~kind:`Read ~op_type:"read" ns;
  match res with
  | Error msg -> fail acc msg
  | Ok o ->
    acc.plan_probes <- acc.plan_probes + 1;
    acc.plan_hits <- acc.plan_hits + o.Engine.stats.Stats.plan_cache_hit;
    acc.answer_bytes <- float_of_int (Buffer.length buf) :: acc.answer_bytes;
    check_read acc ck buf ~member:true ~text o.Engine.answers

(* --- metrics --------------------------------------------------------------------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The reference time at a moment: the median of the kernel runs within a
   second of it, or the nearest run when none is that close. *)
let reference_at refs at =
  match List.filter (fun (t, _) -> Float.abs (t -. at) <= 1e9) refs with
  | [] ->
    snd
      (List.fold_left
         (fun (bt, bms) (t, ms) ->
           if Float.abs (t -. at) < Float.abs (bt -. at) then (t, ms) else (bt, bms))
         (List.hd refs) refs)
  | near -> Option.get (Stat.median (List.map snd near))

let e2e_metrics acc ~setup =
  let open Stat in
  let of_kind k ops = List.filter_map (fun (k', v) -> if k = k' then Some v else None) ops in
  let raw = List.map (fun (k, ms, _) -> (k, ms)) acc.timeline in
  (* each op's latency in units of the reference time around it *)
  let in_refs = List.map (fun (k, ms, at) -> (k, ms /. reference_at acc.refs at)) acc.timeline in
  let reads = of_kind `Read raw and batches = of_kind `Batch raw and writes = of_kind `Write raw in
  let reads_ref = of_kind `Read in_refs in
  let n = List.length in
  let completed = float_of_int (acc.attempted - acc.failed) in
  [ metric "setup_s" "s" (n setup) (median setup);
    metric "ops_per_s" "ops/s" acc.attempted (ratio completed (acc.busy_ns /. 1e9));
    metric "read_p50_ms" "ms" (n reads) (percentile reads 0.5);
    metric "read_p90_ms" "ms" (n reads) (percentile reads 0.9) ]
  @ (if batches = [] then []
     else [ metric "batch_p50_ms" "ms" (n batches) (percentile batches 0.5) ])
  @ (if writes = [] then []
     else
       [ metric "write_p50_ms" "ms" (n writes) (percentile writes 0.5);
         metric "write_p90_ms" "ms" (n writes) (percentile writes 0.9) ])
  @ [ metric "error_rate" "ratio" acc.attempted
        (ratio (float_of_int acc.failed) (float_of_int acc.attempted));
      metric "peak_heap_mb" "MB" 1 (Some (peak_heap_mb ()));
      metric "reference_ms" "ms" (n acc.refs) (median (List.map snd acc.refs));
      metric "ops_per_ref" "ops/ref" acc.attempted
        (ratio completed (List.fold_left (fun a (_, r) -> a +. r) 0. in_refs));
      metric "read_p50_ref" "ref" (n reads_ref) (percentile reads_ref 0.5);
      metric "read_p90_ref" "ref" (n reads_ref) (percentile reads_ref 0.9) ]

(* The standalone lexer drain: MB/s of [Pull.cursor_next] over the bytes. *)
let lex_mb_per_s bytes =
  let once () =
    let p = Pull.of_string bytes in
    let t0 = Span.now () in
    let rec drain () = match Pull.cursor_next p with Pull.Cursor_eof -> () | _ -> drain () in
    drain ();
    float_of_int (String.length bytes) /. 1048576. /. (Span.ns_since t0 /. 1e9)
  in
  Stat.median (List.init 5 (fun _ -> once ()))

(* Per-layer metrics from the untraced half ([u]), the traced half ([t])
   and the replay's recorded spans and evaluations. *)
let layer_metrics ~u ~t ~(r : Span.recorder) ~evals ~states ~shared ~evictions
    ~doc_bytes ~stax_bytes ~indexed =
  let open Stat in
  let self = Hashtbl.create 32 in
  List.iter (fun ((s : Span.span), ns) -> push self s.Span.name ns) (Span.self_times r);
  let spans name = Option.value (Hashtbl.find_opt self name) ~default:[] in
  let span_metric metric_name span_name unit_ scale =
    let xs = spans span_name in
    metric metric_name unit_ (List.length xs)
      (Option.map (fun v -> v /. scale) (median xs))
  in
  let sum f = List.fold_left (fun a (e : Replay.eval) -> a +. float_of_int (f e.Replay.stats)) 0. evals in
  let n_evals = List.length evals in
  let seen = sum (fun s -> s.Stats.nodes_entered + s.Stats.nodes_skipped_dead + s.Stats.nodes_pruned_tax) in
  let eval_ns = List.fold_left (fun a (e : Replay.eval) -> a +. e.Replay.eval_ns) 0. evals in
  let fl = List.map float_of_int in
  (* coverage and overhead per op type, against the untraced medians *)
  let roots = Span.root_ns_by_request r in
  let root_ms req = Option.value (Hashtbl.find_opt roots req) ~default:0. /. 1e6 in
  (* The two halves run at different times: rescale the untraced medians
     by how much the host's speed moved between them, as the reference
     kernel saw it. *)
  let drift =
    match median (List.map snd u.refs), median (List.map snd t.refs) with
    | Some before, Some after -> after /. before
    | _ -> 1.
  in
  let untraced_median ty =
    Option.map (fun m -> m *. drift) (Option.bind (Hashtbl.find_opt u.by_type ty) median)
  in
  let per_type =
    List.sort_uniq compare (List.map (fun (ty, _, _) -> ty) t.traced)
    |> List.filter_map (fun ty ->
           let ops = List.filter (fun (ty', _, _) -> ty' = ty) t.traced in
           let covered = List.map (fun (_, req, _) -> root_ms req) ops in
           let wall = List.map (fun (_, _, ns) -> ns /. 1e6) ops in
           Option.map
             (fun base ->
               ( ty, List.length ops,
                 Option.map (fun c -> c /. base) (median covered),
                 Option.map (fun w -> w /. base) (median wall), base ))
             (untraced_median ty))
  in
  let sum_traced f = List.fold_left (fun a op -> a +. f op) 0. t.traced in
  let base_sum =
    sum_traced (fun (ty, _, _) -> Option.value (untraced_median ty) ~default:nan)
  in
  let root_sum = sum_traced (fun (_, req, _) -> root_ms req) in
  let wall_sum = sum_traced (fun (_, _, ns) -> ns /. 1e6) in
  let unaccounted =
    List.map (fun (_, req, ns) -> (ns /. 1e6) -. root_ms req) t.traced
  in
  let n_ops = float_of_int u.attempted in
  let metrics =
    [ span_metric "xml.parse_ms" "xml.parse" "ms" 1e6;
      metric "xml.lex_mb_per_s" "MB/s" 5 (lex_mb_per_s doc_bytes);
      span_metric "xml.validate_ms" "xml.validate" "ms" 1e6;
      span_metric "xml.dtd_parse_us" "xml.dtd_parse" "us" 1e3;
      span_metric "xml.serialize_ms" "xml.serialize" "ms" 1e6;
      metric "xml.answer_bytes_per_read" "bytes" (List.length u.answer_bytes) (mean u.answer_bytes);
      span_metric "security.policy_parse_ms" "security.policy_parse" "ms" 1e6;
      span_metric "security.derive_ms" "security.derive" "ms" 1e6;
      span_metric "tax.build_ms" "tax.build" "ms" 1e6;
      span_metric "tax.load_ms" "tax.load" "ms" 1e6;
      span_metric "tax.splice_ms" "tax.splice" "ms" 1e6;
      metric "tax.pruned_ratio" "ratio" n_evals
        (if indexed then ratio (sum (fun s -> s.Stats.nodes_pruned_tax)) seen else None);
      span_metric "rxpath.parse_us" "rxpath.parse" "us" 1e3;
      span_metric "plan.canon_us" "plan.canon" "us" 1e3;
      span_metric "rewrite.rewrite_us" "rewrite.rewrite" "us" 1e3;
      span_metric "automata.compile_us" "automata.compile" "us" 1e3;
      span_metric "automata.optimize_us" "automata.optimize" "us" 1e3;
      span_metric "automata.analysis_us" "automata.analysis" "us" 1e3;
      metric "automata.states" "count" (List.length states) (median (fl states));
      span_metric "automata.tables_spec_us" "automata.tables_spec" "us" 1e3;
      span_metric "automata.merge_us" "automata.shared_merge" "us" 1e3;
      metric "automata.shared_saved_ratio" "ratio" (List.length shared)
        (ratio (float_of_int (List.fold_left (fun a (s, _) -> a + s) 0 shared))
           (float_of_int (List.fold_left (fun a (_, m) -> a + m) 0 shared)));
      metric "plan.hit_ratio" "ratio" u.plan_probes
        (ratio (float_of_int u.plan_hits) (float_of_int u.plan_probes));
      metric "plan.evictions" "count" 1 (Some (float_of_int evictions));
      metric "plan.dropped_per_write" "count" (List.length u.dropped) (mean u.dropped);
      span_metric "plan.invalidate_us" "plan.invalidate" "us" 1e3;
      span_metric "hype.eval_dom_ms" "hype.eval_dom" "ms" 1e6;
      span_metric "hype.eval_stax_ms" "hype.eval_stax" "ms" 1e6;
      metric "hype.stax_ns_per_byte" "ns/B" (List.length (spans "hype.eval_stax"))
        (Option.map (fun ns -> ns /. float_of_int stax_bytes) (median (spans "hype.eval_stax")));
      span_metric "hype.batch_eval_ms" "hype.batch_eval" "ms" 1e6;
      metric "hype.ns_per_entered_node" "ns" n_evals
        (ratio eval_ns (sum (fun s -> s.Stats.nodes_entered)));
      metric "hype.dead_skip_ratio" "ratio" n_evals (ratio (sum (fun s -> s.Stats.nodes_skipped_dead)) seen);
      metric "hype.memo_hit_ratio" "ratio" n_evals
        (ratio (sum (fun s -> s.Stats.memo_hits)) (sum (fun s -> s.Stats.memo_hits + s.Stats.memo_misses)));
      metric "hype.cans_size" "count" n_evals
        (mean (List.map (fun (e : Replay.eval) -> float_of_int e.Replay.cans) evals));
      metric "hype.answers_per_candidate" "ratio" n_evals
        (ratio (sum (fun s -> s.Stats.answers)) (sum (fun s -> s.Stats.candidates)));
      span_metric "update.check_ms" "update.check" "ms" 1e6;
      span_metric "update.precheck_ms" "update.precheck" "ms" 1e6;
      span_metric "update.apply_ms" "update.apply" "ms" 1e6;
      span_metric "update.dtd_ms" "update.dtd" "ms" 1e6;
      span_metric "update.postcheck_ms" "update.postcheck" "ms" 1e6;
      metric "core.unaccounted_ms" "ms" (List.length unaccounted) (median unaccounted);
      metric "gc.alloc_mb_per_op" "MB" u.attempted
        (ratio (u.alloc_words *. float_of_int (Sys.word_size / 8) /. 1048576.) n_ops);
      metric "gc.major_per_op" "count" u.attempted (ratio (float_of_int u.majors) n_ops);
      metric "trace.coverage" "ratio" (List.length t.traced) (ratio root_sum base_sum);
      metric "trace.overhead" "ratio" (List.length t.traced) (ratio wall_sum base_sum) ]
  in
  (metrics, per_type)

let print_per_type per_type =
  Printf.printf "# -- trace coverage and overhead per op type --\n";
  Printf.printf "# %-14s %8s %14s %10s %10s\n" "op type" "samples" "untraced p50" "coverage" "overhead";
  List.iter
    (fun (ty, n, cov, over, base) ->
      let f = function Some v -> Printf.sprintf "%.3f" v | None -> "null" in
      Printf.printf "# %-14s %8d %11.3f ms %10s %10s\n" ty n base (f cov) (f over))
    per_type

(* --- workloads ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : Stat.metric list;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Set up [setup_reps] times and keep the last; each set-up starts from a
   collected heap, so the discarded ones neither slow the next nor raise
   the peak heap. *)
let time_setups f =
  let last = ref None in
  let times =
    List.init setup_reps (fun _ ->
        last := None;
        Gc.full_major ();
        let t0 = Span.now () in
        last := Some (f ());
        Span.ns_since t0 /. 1e9)
  in
  Gc.full_major ();
  (times, Option.get !last)

let write_spans r ~name ~seed =
  let path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" name seed) in
  Span.write_jsonl r path;
  Printf.printf "# spans written to %s\n" path

let finish ~name ~seed ~trace ~(u : acc) ~(t : acc) ~setups ~layers =
  if not trace then begin
    let metrics = e2e_metrics u ~setup:setups in
    Stat.print_table "end-to-end" metrics;
    { attempted = u.attempted; failed = u.failed; metrics }
  end
  else begin
    let r, metrics, per_type = layers () in
    Stat.print_table "per layer (traced replay)" metrics;
    print_per_type per_type;
    write_spans r ~name ~seed;
    { attempted = u.attempted + t.attempted; failed = u.failed + t.failed; metrics }
  end

let serve ~name ~writes ~seed ~seconds ~trace =
  (* inputs, made before any timing *)
  let doc = Inputs.document ~seed in
  let stream = Inputs.serve_stream ~seed ~writes in
  let dir = Filename.concat (work_dir ()) "store" in
  let store = ok (Store.create ~dir ~dtd:Hospital.dtd doc) in
  ok (Store.add_policy store ~group:Inputs.group Hospital.policy);
  let ck = checker ~seed ~every:(if writes then mixed_check_every else 1) doc in
  if not writes then begin
    Array.iter (fun q -> ignore (Oracle.expect ck.oracle ~member:true q)) Inputs.view_queries;
    Array.iter (fun q -> ignore (Oracle.expect ck.oracle ~member:false q)) Inputs.admin_queries
  end;
  let setups, server = time_setups (fun () -> open_server dir) in
  let buf = Buffer.create 65536 in
  let next = ref 0 in
  let take () =
    let op = stream.(!next) in
    incr next;
    op
  in
  let phase = if trace then seconds /. 2. else seconds in
  let u = acc () in
  let evictions () = List.assoc "evictions" (Engine.plan_cache_counters (engine server)) in
  let ev0 = evictions () in
  let reference = read_file (Filename.concat dir "document.xml") in
  ignore (run_for ~seconds:phase ~reference u (fun _ -> serve_op server ck u buf (take ())));
  let evicted = evictions () - ev0 in
  let t = acc () in
  let layers () =
    let r = Span.recorder () in
    Span.start_request r 0;
    let _, dtd, view, _ = Replay.store_open r dir ~group:Inputs.group in
    let setup_spans = r.Span.spans in
    let e = engine server in
    let rp =
      Replay.create r ~dtd ~view ~tree:(Engine.document e) ~tax:(Engine.index e)
        ~mode:"dom" ~use_index:true
    in
    (* the replay's own untimed warm-up pass *)
    Array.iter (fun q -> ignore (Replay.read rp ~member:true q)) Inputs.view_queries;
    Array.iter (fun q -> ignore (Replay.read rp ~member:false q)) Inputs.admin_queries;
    ignore (Replay.batch rp (Array.to_list Inputs.view_queries));
    rp.Replay.evals <- [];
    rp.Replay.states <- [];
    rp.Replay.shared <- [];
    r.Span.spans <- setup_spans;
    ignore
      (run_for ~seconds:phase ~reference t (fun i ->
           replay_op rp ck t buf (i + 1) (take ())));
    let metrics, per_type =
      layer_metrics ~u ~t ~r ~evals:rp.Replay.evals ~states:rp.Replay.states
        ~shared:rp.Replay.shared ~evictions:evicted
        ~doc_bytes:reference ~stax_bytes:0
        ~indexed:true
    in
    (r, metrics, per_type)
  in
  finish ~name ~seed ~trace ~u ~t ~setups ~layers

let oneshot ~name ~stax ~seed ~seconds ~trace =
  let doc = Inputs.document ~seed in
  let stream = Inputs.oneshot_stream ~seed in
  let doc_path = Filename.concat (work_dir ()) "doc.xml" in
  Serializer.to_file ~indent:false ~decl:true doc_path doc;
  let ck = checker ~seed ~every:1 doc in
  Array.iter (fun q -> ignore (Oracle.expect ck.oracle ~member:true q)) Inputs.view_queries;
  (* set-up is the untimed warm-up pass: one cold request per query *)
  let setups, () =
    time_setups (fun () ->
        Array.iter (fun q -> ignore (oneshot_request ~stax ~doc_path q)) Inputs.view_queries)
  in
  let buf = Buffer.create 65536 in
  let phase = if trace then seconds /. 2. else seconds in
  let u = acc () in
  let reference = read_file doc_path in
  let n_untraced =
    run_for ~seconds:phase ~reference u (fun i -> oneshot_op ~stax ~doc_path ck u buf stream.(i))
  in
  let t = acc () in
  let layers () =
    let r = Span.recorder () in
    let evals = ref [] and states = ref [] in
    ignore
      (run_for ~seconds:phase ~reference t (fun i ->
           let req = i + 1 in
           let text = Inputs.view_queries.(stream.(n_untraced + i)) in
           Span.start_request r req;
           match
             traced t ~req ~op_type:"read" (fun () ->
                 let rp, (ids, xmls) = Replay.oneshot r ~stax ~doc_path text in
                 Oracle.write_answers buf xmls;
                 evals := rp.Replay.evals @ !evals;
                 states := rp.Replay.states @ !states;
                 ids)
           with
           | Ok ids -> check_read t ck buf ~member:true ~text ids
           | Error msg -> fail t msg));
    let metrics, per_type =
      layer_metrics ~u ~t ~r ~evals:!evals ~states:!states ~shared:[] ~evictions:0
        ~doc_bytes:reference ~stax_bytes:(String.length reference) ~indexed:(not stax)
    in
    (r, metrics, per_type)
  in
  finish ~name ~seed ~trace ~u ~t ~setups ~layers

(* --- main ------------------------------------------------------------------------ *)

(* Each of these silently changes the measured program. *)
let guarded_env = [ "SMOQE_NO_TABLES"; "SMOQE_FAILPOINTS"; "SMOQE_JOBS"; "SMOQE_BENCH_SMOKE" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let usage =
    "smoqe_perfbench --workload serve_read|serve_mixed|oneshot_dom|oneshot_stax \
     [--seed N] [--seconds S] [--trace 0|1]"
  in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then begin
        Printf.eprintf "perfbench: refusing to run: %s is set and changes the measured program\n" v;
        exit 2
      end)
    guarded_env;
  let trace =
    match !trace with
    | 0 -> false
    | 1 -> true
    | _ -> prerr_endline usage; exit 2
  in
  let seed = !seed and seconds = !seconds and name = !workload in
  let run =
    match name with
    | "serve_read" -> serve ~writes:false
    | "serve_mixed" -> serve ~writes:true
    | "oneshot_dom" -> oneshot ~stax:false
    | "oneshot_stax" -> oneshot ~stax:true
    | _ -> prerr_endline usage; exit 2
  in
  Printf.printf "# smoqe perfbench: workload %s, seed %d, %g s, trace %d\n" name seed
    seconds (if trace then 1 else 0);
  Printf.printf "# nproc %d, OCaml %s, closed loop, 1 client\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let result =
    Fun.protect
      ~finally:(fun () ->
        let dir = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
        if Sys.file_exists dir then remove_tree dir)
      (fun () -> run ~name ~seed ~seconds ~trace)
  in
  Stat.print_result ~correct:(result.failed = 0) ~attempted:result.attempted
    ~failed:result.failed
    ~declared:(if trace then declared_layers else declared_e2e)
    result.metrics;
  if result.failed > 0 then exit 1
