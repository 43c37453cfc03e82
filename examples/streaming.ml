(* StAX mode over a file: the document is written to disk, loaded once,
   then every query is answered by a single sequential scan of the file
   through the pull parser — the scan builds no tree and no event list.

   Run with: dune exec examples/streaming.exe *)

module Engine = Smoqe.Engine
module Error = Smoqe_robust.Error
module Stats = Smoqe_hype.Stats
module Hospital = Smoqe_workload.Hospital
module Serializer = Smoqe_xml.Serializer

let () =
  (* ~60k nodes of hospital records, streamed to a temp file. *)
  let doc = Hospital.generate ~seed:99 ~n_patients:3000 ~recursion_depth:2 () in
  let path = Filename.temp_file "smoqe_stream" ".xml" in
  Serializer.to_file ~indent:false path doc;
  let size_kb = (Unix_size.file_size path + 1023) / 1024 in
  Printf.printf "wrote %s (%d KiB, %d nodes)\n" path size_kb
    (Smoqe_xml.Tree.n_nodes doc);

  let engine =
    match Engine.of_file_robust path with
    | Ok e -> e
    | Error e -> failwith (Error.to_string e)
  in

  let run query =
    match Engine.query_robust engine ~mode:Engine.Stax query with
    | Error e -> failwith (Error.to_string e)
    | Ok o ->
      Printf.printf
        "%-55s -> %5d answers | %d pass over the file, %d/%d nodes processed\n"
        query
        (List.length o.Engine.answers)
        o.Engine.stats.Stats.passes_over_data
        o.Engine.stats.Stats.nodes_alive
        (o.Engine.stats.Stats.nodes_entered + Stats.total_skipped o.Engine.stats)
  in
  run "patient/pname";
  run "//medication";
  run "patient[visit/treatment/medication = 'autism']/pname";
  run Smoqe_workload.Queries.q0;

  (* DOM and StAX agree on everything above. *)
  let agree query =
    match
      ( Engine.query_robust engine ~mode:Engine.Dom query,
        Engine.query_robust engine ~mode:Engine.Stax query )
    with
    | Ok a, Ok b -> a.Engine.answers = b.Engine.answers
    | _ -> false
  in
  Printf.printf "\nDOM/StAX agreement on the suite: %b\n"
    (List.for_all agree (List.map snd Smoqe_workload.Queries.suite));
  Sys.remove path
