(* Sharded scatter-gather federation: one logical corpus served by N
   engine instances.

   The corpus generator below (graduated from lib/workload) builds the
   heterogeneous "federated corporation" documents; the serving half
   shards a corpus across engines, fans queries out through the domain
   pool, and merges per-shard answers and statistics.  Policies are
   registered on every shard, so each shard rewrites and evaluates
   through the same shared policy-key artifacts; admission is
   federation-level — one token bucket per group for the whole
   federation, never per shard, so fanning out wider does not multiply a
   group's bill. *)

module Dtd = Smoqe_xml.Dtd
module Tree = Smoqe_xml.Tree
module Engine = Smoqe.Engine
module Pool = Smoqe_exec.Pool
module Stats = Smoqe_hype.Stats
module Error = Smoqe_robust.Error
module Admission = Smoqe_robust.Admission

(* --- the corpus workload --------------------------------------------------- *)

let dtd =
  Dtd.create ~root:"corp"
    [
      ("corp", Dtd.Children (Dtd.Star (Dtd.Name "dept")));
      ( "dept",
        Dtd.Children
          (Dtd.Seq
             ( Dtd.Name "dname",
               Dtd.Star
                 (Dtd.Alt
                    ( Dtd.Alt (Dtd.Name "sales", Dtd.Name "audit"),
                      Dtd.Alt (Dtd.Name "hr", Dtd.Name "inventory") )) )) );
      ("sales", Dtd.Children (Dtd.Star (Dtd.Name "order")));
      ( "order",
        Dtd.Children (Dtd.Seq (Dtd.Star (Dtd.Name "item"), Dtd.Name "total")) );
      ("audit", Dtd.Children (Dtd.Star (Dtd.Name "finding")));
      ( "finding",
        Dtd.Children (Dtd.Seq (Dtd.Name "severity", Dtd.Name "note")) );
      ("hr", Dtd.Children (Dtd.Star (Dtd.Name "employee")));
      ( "employee",
        Dtd.Children (Dtd.Seq (Dtd.Name "ename", Dtd.Name "salary")) );
      ("inventory", Dtd.Children (Dtd.Star (Dtd.Name "widget")));
      ("widget", Dtd.Children (Dtd.Seq (Dtd.Name "sku", Dtd.Name "qty")));
      ("dname", Dtd.Mixed []);
      ("item", Dtd.Mixed []);
      ("total", Dtd.Mixed []);
      ("severity", Dtd.Mixed []);
      ("note", Dtd.Mixed []);
      ("ename", Dtd.Mixed []);
      ("salary", Dtd.Mixed []);
      ("sku", Dtd.Mixed []);
      ("qty", Dtd.Mixed []);
    ]

(* One threaded RNG state: callers that generate several documents (a
   multi-shard corpus) pass the same [~rng] and the whole corpus is a
   deterministic function of one seed, instead of every call re-seeding
   and producing identical shards. *)
let generate ?(seed = 13) ?rng ~n_departments ~section_size () =
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| seed |]
  in
  let leaf tag v = Tree.E (tag, [], [ Tree.T v ]) in
  let order i =
    Tree.E
      ( "order",
        [],
        List.init (1 + Random.State.int rng 3) (fun j ->
            leaf "item" (Printf.sprintf "i%d-%d" i j))
        @ [ leaf "total" (string_of_int (Random.State.int rng 1000)) ] )
  in
  let finding i =
    Tree.E
      ( "finding",
        [],
        [
          leaf "severity"
            (match Random.State.int rng 3 with
            | 0 -> "high"
            | 1 -> "medium"
            | _ -> "low");
          leaf "note" (Printf.sprintf "note-%d" i);
        ] )
  in
  let employee i =
    Tree.E
      ( "employee",
        [],
        [
          leaf "ename" (Printf.sprintf "emp-%d" i);
          leaf "salary" (string_of_int (30_000 + Random.State.int rng 50_000));
        ] )
  in
  let widget i =
    Tree.E
      ( "widget",
        [],
        [
          leaf "sku" (Printf.sprintf "sku-%d" i);
          leaf "qty" (string_of_int (Random.State.int rng 100));
        ] )
  in
  let section kind =
    match kind with
    | 0 -> Tree.E ("sales", [], List.init section_size order)
    | 1 -> Tree.E ("audit", [], List.init section_size finding)
    | 2 -> Tree.E ("hr", [], List.init section_size employee)
    | _ -> Tree.E ("inventory", [], List.init section_size widget)
  in
  let dept d =
    let first = Random.State.int rng 4 in
    let sections =
      if Random.State.int rng 100 < 30 then
        [ section first; section ((first + 1 + Random.State.int rng 3) mod 4) ]
      else [ section first ]
    in
    Tree.E ("dept", [], leaf "dname" (Printf.sprintf "dept-%d" d) :: sections)
  in
  Tree.of_source (Tree.E ("corp", [], List.init n_departments dept))

let generate_corpus ?(seed = 13) ~shards ~n_departments ~section_size () =
  let rng = Random.State.make [| seed |] in
  List.init (max 1 shards) (fun _ ->
      generate ~rng ~n_departments ~section_size ())

let queries =
  [
    ("audit notes", "//finding[severity = 'high']/note");
    ("salaries", "//employee/salary");
    ("order items", "dept/sales/order[total]/item");
    ("skus", "//widget/sku");
    ("names (anti-case)", "//dname");
  ]

(* --- scatter-gather serving ------------------------------------------------ *)

type t = {
  shards : Engine.t array;
  fed_dtd : Dtd.t option;
  admission : Admission.t;
}

let create ?dtd docs =
  if docs = [] then invalid_arg "Federation.create: empty corpus";
  {
    shards = Array.of_list (List.map (Engine.of_tree ?dtd) docs);
    fed_dtd = dtd;
    admission = Admission.create ();
  }

(* Round-robin split of the root's children: shard k serves a document
   whose root holds children k, k+s, k+2s, ...  Shards are built with
   [Engine.of_tree] (no validation): a shard of a valid corpus need not
   satisfy the corpus root's full content model on its own. *)
let shard_tree ~shards tree =
  let shards = max 1 shards in
  let children =
    List.filter
      (fun n -> not (Tree.is_text tree n))
      (Tree.children tree Tree.root)
  in
  let buckets = Array.make shards [] in
  List.iteri
    (fun i c -> buckets.(i mod shards) <- c :: buckets.(i mod shards))
    children;
  let root_tag = Tree.tag_name tree (Tree.tag_id tree Tree.root) in
  Array.to_list
    (Array.map
       (fun rev ->
         Tree.of_source
           (Tree.E
              ( root_tag,
                [],
                List.map (fun c -> Tree.to_source tree c) (List.rev rev) )))
       buckets)

let of_tree ?dtd ~shards tree = create ?dtd (shard_tree ~shards tree)

let n_shards t = Array.length t.shards
let shard t i = t.shards.(i)

(* Administrative fan-out: first failure wins, but every shard is still
   attempted so the federation never serves half-registered state
   silently. *)
let fan_admin t f =
  Array.fold_left
    (fun acc e ->
      match (acc, f e) with
      | (Error _ as err), _ -> err
      | Ok (), Error msg -> Error msg
      | Ok (), Ok _ -> Ok ())
    (Ok ()) t.shards

(* Every shard holds the shared artifacts for the group's key; the
   per-shard registries agree because the key is a content hash. *)
let register_policy t ~group policy =
  fan_admin t (fun e -> Engine.register_policy e ~group policy)

let set_admission t ~group ~capacity ?refill_per_s () =
  Admission.set_budget t.admission ~tenant:group ~capacity ?refill_per_s ()

let admission_counters t = Admission.counters t.admission

let tenant_counters t =
  (* The registries are replicas: shard 0 speaks for the federation. *)
  if Array.length t.shards = 0 then [] else Engine.tenant_counters t.shards.(0)

let throttle_error t group =
  let stats = Stats.zero () in
  stats.Stats.tenant_throttled <- 1;
  Error.Budget_exceeded
    {
      what = Printf.sprintf "group %s admission tokens" group;
      limit =
        (match Admission.limit_of t.admission ~tenant:group with
        | Some n -> string_of_int n
        | None -> "0");
      partial_stats = Stats.to_assoc stats;
    }

(* Federation-level admission: one token per member query for the whole
   scatter, charged before any shard sees work. *)
let admit t ?group ~cost () =
  match group with
  | None -> Ok ()
  | Some g ->
    if Admission.admit ~cost t.admission ~tenant:g then Ok ()
    else Error (throttle_error t g)

(* A federated answer: per-shard node ids (ids are shard-local
   coordinates) plus the concatenated serialized fragments, in shard
   order. *)
type fed_outcome = {
  fed_answers : (int * int) list;  (** (shard, node id) in shard order *)
  fed_xml : string list;
  fed_stats : Stats.t;  (** merged over shards; [shard_fanout] set *)
}

let merge_outcomes t per_shard =
  let stats = Stats.zero () in
  let answers = ref [] and xml = ref [] in
  Array.iteri
    (fun s (o : Engine.outcome) ->
      Stats.merge_into ~into:stats o.Engine.stats;
      answers := !answers @ List.map (fun n -> (s, n)) o.Engine.answers;
      xml := !xml @ o.Engine.answer_xml)
    per_shard;
  (* one scatter = one logical pass fanned [n_shards] wide *)
  stats.Stats.shard_fanout <- n_shards t;
  { fed_answers = !answers; fed_xml = !xml; fed_stats = stats }

let first_error results =
  Array.fold_left
    (fun acc r -> match (acc, r) with
      | Some _, _ -> acc
      | None, Error e -> Some e
      | None, Ok _ -> None)
    None results

(* Batch scatter-gather: each shard answers the whole batch in one
   shared-automaton pass ([run_many] batching within the shard), then
   member answers merge across shards.  A member that fails on any shard
   fails with that shard's error; the rest of the batch is unaffected. *)
let run_many_robust t ~pool ?group ?mode ?use_index ?make_budget texts =
  let n = List.length texts in
  if n = 0 then ([||], Stats.zero ())
  else
  match admit t ?group ~cost:(float_of_int n) () with
  | Error e ->
    let aggregate = Stats.zero () in
    (match e with
    | Error.Budget_exceeded _ -> aggregate.Stats.tenant_throttled <- n
    | _ -> ());
    (Array.make n (Error e), aggregate)
  | Ok () ->
    let futures =
      Array.map
        (fun e ->
          (* shard engines keep unlimited admission: the federation
             already charged every member once *)
          Pool.submit ?lane:group pool (fun () ->
              let budget = Option.map (fun mk -> mk ()) make_budget in
              Engine.run_many_robust e ?group ?mode ?use_index ?budget texts))
        t.shards
    in
    let parts = Array.map Pool.await futures in
    let aggregate = Stats.zero () in
    Array.iter
      (fun (_, stats) -> Stats.merge_into ~into:aggregate stats)
      parts;
    aggregate.Stats.shard_fanout <- n_shards t;
    let merged =
      Array.init n (fun i ->
          let shard_results =
            Array.map (fun (results, _) -> results.(i)) parts
          in
          match first_error shard_results with
          | Some e -> Error e
          | None ->
            Ok
              (merge_outcomes t
                 (Array.map
                    (function Ok o -> o | Error _ -> assert false)
                    shard_results)))
    in
    (merged, aggregate)

let query_robust t ~pool ?group ?mode ?use_index ?make_budget text =
  (fst
     (run_many_robust t ~pool ?group ?mode ?use_index ?make_budget [ text ]))
    .(0)
