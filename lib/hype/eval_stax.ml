module Pull = Smoqe_xml.Pull
module Serializer = Smoqe_xml.Serializer
module Failpoint = Smoqe_robust.Failpoint
module Shared = Smoqe_automata.Shared
module Tables = Smoqe_automata.Tables

type result = {
  answers : int list;
  captured : (int * string) list;
  stats : Stats.t;
  cans_size : int;
  n_nodes : int;
  budget_hit : (string * string) option;
}

type many_result = {
  by_query : int list array;
  by_query_captured : (int * string) list array;
  m_stats : Stats.t;
  m_cans_size : int;
  m_n_nodes : int;
  m_budget_hit : (string * string) option;
}

(* The one driver: a single loop over the parser cursor.  Names arrive
   as parser ids, mapped to a table column and an element kind once per
   distinct name; text arrives as a borrowed [Tx_sub] span consumed inside
   the event (enter -> capture -> leave) before the next [cursor_next]
   invalidates it.  Captures share one buffer per pass: while any is open,
   every event is written to it once (skipped regions included: they are
   part of the fragment), a finished capture is a span of it, and only
   answers become strings, after the pass. *)
let run_slots ?(capture = false) ?budget ?trace ?(use_tables = true) ?memo_cap
    (sh : Shared.t) pull =
  (* Streaming has no tag universe up front: the table covers the
     automaton's element names, and any other stream tag takes the
     wildcard column. *)
  let tables =
    if use_tables then
      Some (Tables.of_nfa sh.Shared.mfa.Smoqe_automata.Mfa.nfa)
    else None
  in
  let spec_us = match tables with Some tb -> Tables.spec_us tb | None -> 0 in
  let next_id = ref 0 in
  (* Node ids are query-agnostic: every slot reads its fragments here. *)
  let out = Buffer.create 256 in
  let spans : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let scan engine ~settle =
    let stats = Engine.stats engine in
    (* Budgets tick per event: the pass settles every 32. *)
    let ticks = ref 0 in
    let checkpoint () =
      Failpoint.trigger "hype.step";
      let k = !ticks + 1 in
      ticks := k;
      if k land 31 = 0 then settle k
    in
    (* Per parser name id: table column ([-2] until first seen), kind. *)
    let cols = ref [||] and kinds = ref [||] in
    let element n =
      if n >= Array.length !cols then begin
        cols := Array.append !cols (Array.make (n + 16) (-2));
        kinds := Array.append !kinds (Array.make (n + 16) (Engine.El ""))
      end;
      if !cols.(n) = -2 then begin
        let name = Pull.cur_name pull in
        !kinds.(n) <- Engine.El name;
        !cols.(n) <-
          (match tables with
          | Some tb -> Tables.intern tb name
          | None -> Tables.unknown_tag)
      end
    in
    (* Open elements are [depth]; the engine was entered, and stayed
       alive, for the outermost [alive] of them.  The children of any
       other are skipped without engine calls, but still take pre-order
       ids so that answers align with DOM ids. *)
    let depth = ref 0 and alive = ref 0 in
    let mark id m =
      match trace with None -> () | Some tr -> Trace.mark tr id m
    in
    let skip_dead id =
      stats.Stats.nodes_skipped_dead <- stats.Stats.nodes_skipped_dead + 1;
      mark id Trace.Skipped_dead
    in
    (* Open captures, innermost first: (node, start in [out], depth). *)
    let open_caps = ref [] in
    (* A start tag stays unterminated ([<tag attrs]) until the element's
       first child or its end, so a childless element is written
       [<tag attrs/>] — byte for byte what the DOM serializer writes. *)
    let tag_open = ref false in
    let terminate_tag () =
      if !tag_open then begin
        Buffer.add_char out '>';
        tag_open := false
      end
    in
    let cap_start ~candidate id =
      terminate_tag ();
      if capture && candidate then
        open_caps := (id, Buffer.length out, !depth - 1) :: !open_caps;
      Buffer.add_char out '<';
      Buffer.add_string out (Pull.cur_name pull);
      for i = 0 to Pull.cur_attr_count pull - 1 do
        Buffer.add_char out ' ';
        Buffer.add_string out (Pull.cur_attr_name pull i);
        Buffer.add_string out "=\"";
        let s, off, len = Pull.cur_attr_span pull i in
        Serializer.add_escaped_attr out s off len;
        Buffer.add_char out '"'
      done;
      tag_open := true
    in
    let cap_end () =
      if !tag_open then Buffer.add_string out "/>"
      else begin
        Buffer.add_string out "</";
        Buffer.add_string out (Pull.cur_name pull);
        Buffer.add_char out '>'
      end;
      tag_open := false;
      match !open_caps with
      | (node, start, d) :: rest when d = !depth ->
        Hashtbl.replace spans node (start, Buffer.length out - start);
        open_caps := rest
      | _ -> ()
    in
    let cap_text id is_candidate =
      terminate_tag ();
      let start = Buffer.length out in
      let s, off, len = Pull.cur_text_span pull in
      Serializer.add_escaped_text out s off len;
      if capture && is_candidate then
        Hashtbl.replace spans id (start, Buffer.length out - start)
    in
    (* Every event is one checkpoint; start and text events take the next
       pre-order id.  The guards on [cap_start]/[cap_text] are exactly the
       conditions under which the capture buffer consumes the event. *)
    let rec loop () =
      match Pull.cursor_next pull with
      | Pull.Cursor_eof -> ()
      | Pull.Cursor_start ->
        checkpoint ();
        let id = !next_id in
        next_id := id + 1;
        let parent_alive = !alive = !depth in
        incr depth;
        let candidate =
          if parent_alive then begin
            let n = Pull.cur_name_id pull in
            element n;
            (match
               Engine.enter_tagged engine ~id ~tag:!cols.(n) ~kind:!kinds.(n)
             with
            | Engine.Alive -> incr alive
            | Engine.Dead -> mark id Trace.Skipped_dead);
            Engine.entered_candidate engine
          end
          else begin
            skip_dead id;
            false
          end
        in
        if !open_caps <> [] || (capture && candidate) then
          cap_start ~candidate id;
        loop ()
      | Pull.Cursor_end ->
        checkpoint ();
        if !depth = 0 then raise (Engine.Driver_error "unbalanced end event");
        if !alive = !depth then begin
          Engine.leave engine;
          decr alive
        end;
        decr depth;
        if !open_caps <> [] then cap_end ();
        loop ()
      | Pull.Cursor_text ->
        checkpoint ();
        let id = !next_id in
        next_id := id + 1;
        if !alive = !depth then begin
          let backing, off, len = Pull.cur_text_span pull in
          match
            Engine.enter engine ~id ~kind:(Engine.Tx_sub (backing, off, len))
          with
          | Engine.Alive ->
            let candidate = Engine.entered_candidate engine in
            if !open_caps <> [] || (capture && candidate) then
              cap_text id candidate;
            Engine.leave engine
          | Engine.Dead -> if !open_caps <> [] then cap_text id false
        end
        else begin
          skip_dead id;
          if !open_caps <> [] then cap_text id false
        end;
        loop ()
    in
    loop ();
    !ticks
  in
  let p = Engine.run_pass ?trace ?tables ?memo_cap ?budget ~spec_us sh scan in
  let captured answers =
    if not capture then []
    else
      List.filter_map
        (fun n ->
          Option.map
            (fun (start, len) -> (n, Buffer.sub out start len))
            (Hashtbl.find_opt spans n))
        answers
  in
  {
    by_query = p.Engine.by_query;
    by_query_captured = Array.map captured p.Engine.by_query;
    m_stats = p.Engine.m_stats;
    m_cans_size = p.Engine.m_cans_size;
    m_n_nodes = !next_id;
    m_budget_hit = p.Engine.m_budget_hit;
  }

let run ?capture ?budget ?trace ?use_tables ?memo_cap mfa pull =
  let m =
    run_slots ?capture ?budget ?trace ?use_tables ?memo_cap
      (Shared.merge [| mfa |]) pull
  in
  {
    answers = m.by_query.(0);
    captured = m.by_query_captured.(0);
    stats = m.m_stats;
    cans_size = m.m_cans_size;
    n_nodes = m.m_n_nodes;
    budget_hit = m.m_budget_hit;
  }

let eval_string ?capture ?trace path input =
  let mfa = Smoqe_automata.Compile.compile path in
  run ?capture ?trace mfa (Pull.of_string input)
