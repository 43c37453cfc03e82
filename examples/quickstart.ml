(* Quickstart: load a document, pose Regular XPath queries, inspect the
   answers and the engine's statistics.

   Run with: dune exec examples/quickstart.exe *)

module Engine = Smoqe.Engine
module Ismoqe = Smoqe.Ismoqe
module Error = Smoqe_robust.Error

let document =
  {|<library>
      <shelf floor="1">
        <book><title>A Tale of Queries</title><year>2004</year></book>
        <book><title>The Automaton</title><year>2006</year></book>
      </shelf>
      <shelf floor="2">
        <box>
          <book><title>Hidden Gem</title><year>2006</year></book>
        </box>
      </shelf>
    </library>|}

let () =
  (* Parse errors come back as typed values, with a location. *)
  (match Engine.of_string_robust "<library><oops></library>" with
  | Error e ->
    Printf.printf "malformed input is rejected: %s\n\n" (Error.to_string e)
  | Ok _ -> assert false);

  let engine =
    match Engine.of_string_robust document with
    | Ok e -> e
    | Error e -> failwith (Error.to_string e)
  in

  let show query =
    match Engine.query_robust engine query with
    | Error e -> Printf.printf "error for %s: %s\n" query (Error.to_string e)
    | Ok outcome ->
      Printf.printf "Q: %s\n" query;
      List.iter (fun xml -> Printf.printf "   %s\n" xml) outcome.Engine.answer_xml;
      Printf.printf "\n"
  in

  (* 1. A plain path query. *)
  show "shelf/book/title";

  (* 2. The descendant axis finds books wherever they hide. *)
  show "//book[year = '2006']/title";

  (* 3. General Kleene closure — Regular XPath's extension over XPath. *)
  show "(shelf | box)*/book/title";

  (* 4. Streaming (StAX) mode: same answers, one sequential scan. *)
  (match
     ( Engine.query_robust engine ~mode:Engine.Dom "//book/title",
       Engine.query_robust engine ~mode:Engine.Stax "//book/title" )
   with
  | Ok dom, Ok stax ->
    Printf.printf "DOM and StAX agree: %b (%d answers; StAX made %d pass)\n"
      (dom.Engine.answers = stax.Engine.answers)
      (List.length dom.Engine.answers)
      stax.Engine.stats.Smoqe_hype.Stats.passes_over_data
  | _ -> assert false);

  (* 5. Statistics: HyPE visits each node at most once. *)
  match Engine.query_robust engine "//book[year = '2004']" with
  | Ok outcome ->
    Printf.printf "\nengine counters for the last query:\n%s\n"
      (Ismoqe.stats_table outcome.Engine.stats)
  | Error e -> failwith (Error.to_string e)
