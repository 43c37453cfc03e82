(* The multicore stress harness (dune build @stress).

   One engine, one 8-domain [Pool.run], and every kind of trouble at once:

   - a batch of mixed queries — the hot serving suite (all cache hits
     once warm) interleaved with one-off queries that force compiles, so
     the plan cache is probed and populated concurrently;
   - administrative churn as tasks of the same run, racing the queries:
     the group's policy re-registered (a no-op that must keep its plans)
     and the document replaced with an equal tree (invalidating
     everything);
   - group traffic from many principals at once: 8 more groups sharing
     one canonical policy key, half the batch routed through them, with
     policy churn mid-flight — idempotent re-registration (a key hit) on
     the served groups and full key retirement/re-derivation (plans
     invalidated mid-query) on a churn-only group;
   - the ["plan.compile"] failpoint firing every few compiles.

   The assertions are deliberately coarse — this harness exists to let
   "many domains on one engine" shake out torn reads and lock-order
   bugs, not to re-prove semantics (test_oracle does that):

   1. totality: every task returns [Ok] or a typed [Error]; no task
      dies with an exception (its [Pool.run] slot would be [Error]);
   2. consistency: every successful answer to a hot query is
      byte-identical to the sequential reference — admin churn may fail
      a query (injected fault) but never corrupt one;
   3. the only errors seen are the ones we injected. *)

module Engine = Smoqe.Engine
module Pool = Smoqe_exec.Pool
module Failpoint = Smoqe_robust.Failpoint
module Err = Smoqe_robust.Error
module Tree = Smoqe_xml.Tree
module Update = Smoqe_update.Update
module Hospital = Smoqe_workload.Hospital
module Queries = Smoqe_workload.Queries

(* What one task of the run did. *)
type outcome =
  | Served of string * (Engine.outcome, Err.t) result  (* query text *)
  | Wrote of (Engine.update_report, Err.t) result
  | Churned of string * (unit, string) result  (* admin action *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let () =
  let doc = Hospital.generate ~seed:42 ~n_patients:24 ~recursion_depth:2 () in
  let engine = Engine.of_tree ~dtd:Hospital.dtd doc in
  (match Engine.register_policy engine ~group:"members" Hospital.policy with
  | Ok () -> ()
  | Error msg -> die "register_policy: %s" msg);

  (* 8 more groups on the same policy: one shared key, one derived view.
     t0..t6 serve live traffic; t7 only churns (its policy flips between
     the hospital policy and an everything-visible one, retiring and
     re-deriving a key mid-flight) so served answers stay byte-stable. *)
  let tname i = Printf.sprintf "t%d" i in
  let open_policy =
    match Smoqe_security.Policy.of_string Hospital.dtd "" with
    | Ok p -> p
    | Error msg -> die "open policy: %s" msg
  in
  for i = 0 to 7 do
    match Engine.register_policy engine ~group:(tname i) Hospital.policy with
    | Ok () -> ()
    | Error msg -> die "register_policy %s: %s" (tname i) msg
  done;

  (* Sequential reference for the hot suite, on an engine the pool never
     touches.  replace_document below swaps in an equal tree and
     re-registration reuses the same policy, so these stay the truth for
     the whole run. *)
  let hot = Queries.suite @ Queries.view_suite in
  let reference = Hashtbl.create 16 in
  let ref_engine = Engine.of_tree ~dtd:Hospital.dtd doc in
  (match Engine.register_policy ref_engine ~group:"members" Hospital.policy with
  | Ok () -> ()
  | Error msg -> die "reference register_policy: %s" msg);
  List.iter
    (fun (_, text) ->
      match Engine.query_robust ref_engine ~group:"members" text with
      | Ok o -> Hashtbl.replace reference text o.Engine.answer_xml
      | Error e ->
        die "reference %s: %s" text (Err.to_string e))
    hot;

  (* One-off spellings that always miss the cache, churning the LRU and
     forcing concurrent compiles while the hot set is served. *)
  let miss i =
    Printf.sprintf "patient[visit/treatment/medication = 'm%d']/pname" i
  in

  let rounds = 400 in
  let injected = ref 0 and served = ref 0 and updates = ref 0 in
  let churn what f () = Churned (what, f ()) in
  let on cond task = if cond then [ task ] else [] in
  let round i =
    let text =
      if i mod 3 = 2 then miss i
      else snd (List.nth hot (i mod List.length hot))
    in
    (* half the traffic runs as the t-groups through the shared-key view;
       same semantics, same reference *)
    let group = if i mod 2 = 1 then tname (i mod 7) else "members" in
    List.concat
      [
        (* admin churn, queued among the queries *)
        on (i mod 37 = 17)
          (churn "re-register" (fun () ->
               Engine.register_policy engine ~group:"members" Hospital.policy));
        on (i mod 97 = 53)
          (churn "replace_document" (fun () ->
               Engine.replace_document engine doc));
        (* group policy churn mid-flight: an idempotent re-registration on
           a served group (a policy-key hit, semantics unchanged)... *)
        on (i mod 41 = 11)
          (churn "group re-register" (fun () ->
               Engine.register_policy engine ~group:(tname (i mod 7))
                 Hospital.policy));
        (* ...and a full key flip on the never-queried t7 — retirement,
           generational plan invalidation and a fresh derivation racing
           the live queries *)
        on (i mod 53 = 23)
          (churn "group flip" (fun () ->
               Engine.register_policy engine ~group:"t7"
                 (if i mod 106 = 23 then open_policy else Hospital.policy)));
        (* concurrent writes: identity replaces keep every answer
           byte-stable (so the hot-reference check below stays the truth)
           while the write path's snapshot/retry publish races the queries
           and the admin churn.  Identity edits and the equal-tree
           replace_document keep the node count constant, so a By_id
           picked from the live document stays in range whatever
           interleaving wins. *)
        on (i mod 29 = 13) (fun () ->
            let d = Engine.document engine in
            let n = 1 + (i * 31 mod (Tree.n_nodes d - 1)) in
            Wrote
              (Engine.update_robust engine
                 (Update.Replace (Update.By_id n, Tree.to_source d n))));
        [ (fun () -> Served (text, Engine.query_robust engine ~group text)) ];
      ]
  in
  let outcomes =
    Failpoint.with_failpoints "plan.compile=7" (fun () ->
        Pool.run ~domains:8 (List.concat (List.init rounds round)))
  in
  List.iter
    (function
      | Ok (Served (text, Ok o)) -> (
        incr served;
        match Hashtbl.find_opt reference text with
        | Some expected when o.Engine.answer_xml <> expected ->
          die "CORRUPT answer for %s under churn" text
        | _ -> ())
      | Ok (Served (text, Error e)) ->
        let s = Err.to_string e in
        if contains s "plan.compile" then incr injected
        else die "unexpected error for %s: %s" text s
      | Ok (Wrote (Ok (_ : Engine.update_report))) -> incr updates
      | Ok (Wrote (Error e)) ->
        die "concurrent update failed: %s" (Err.to_string e)
      | Ok (Churned (_, Ok ())) -> ()
      | Ok (Churned (what, Error msg)) -> die "%s: %s" what msg
      | Error exn ->
        die "task raised (totality broken): %s" (Printexc.to_string exn))
    outcomes;
  if !served = 0 then die "no query ever succeeded";
  if !injected = 0 then die "the armed failpoint never fired";
  Printf.printf
    "stress OK: %d queries (%d served, %d injected faults, %d concurrent \
     updates), answers stable under re-registration, document replacement, \
     writes and 8-group policy churn\n"
    rounds !served !injected !updates
