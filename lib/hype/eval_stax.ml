module Pull = Smoqe_xml.Pull
module Serializer = Smoqe_xml.Serializer
module Failpoint = Smoqe_robust.Failpoint
module Shared = Smoqe_automata.Shared

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

(* An in-flight capture of a candidate subtree: everything scanned while
   it is open is appended (including regions the engine skipped — they
   are part of the fragment even if no run is alive there). *)
type capture = {
  cap_node : int;
  buf : Buffer.t;
  mutable open_elements : int;
}

(* The one driver: a single loop over the parser cursor.  Names arrive
   interned, text as a borrowed [Tx_sub] span consumed inside the event
   (enter -> capture -> leave) before the next [cursor_next] invalidates
   it, so on the fast path (no capture in progress) nothing is copied.
   Attributes and text are materialized only while a capture is
   actually recording. *)
let run_slots ?(capture = false) ?budget ?trace ?(use_tables = true) ?memo_cap
    (sh : Shared.t) pull =
  (* Streaming has no tag universe up front: the table covers the
     automaton's element names, and any other stream tag takes the
     wildcard column. *)
  let tables =
    if use_tables then
      Some (Smoqe_automata.Tables.of_nfa sh.Shared.mfa.Smoqe_automata.Mfa.nfa)
    else None
  in
  let spec_us =
    match tables with Some tb -> Smoqe_automata.Tables.spec_us tb | None -> 0
  in
  let next_id = ref 0 in
  (* Node ids are query-agnostic, so every slot reads its fragments from
     one per-node capture store. *)
  let finished_captures : (int, string) Hashtbl.t = Hashtbl.create 16 in
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
    (* Per open element: was the engine entered for it, and did it stay
       alive?  Children of any other are skipped without engine calls, but
       still take pre-order ids so that answers align with DOM ids. *)
    let stack = ref [] in
    let mark id m =
      match trace with None -> () | Some tr -> Trace.mark tr id m
    in
    let parent_alive () = match !stack with [] -> true | alive :: _ -> alive in
    let skip_dead id =
      stats.Stats.nodes_skipped_dead <- stats.Stats.nodes_skipped_dead + 1;
      mark id Trace.Skipped_dead
    in
    (* capturing *)
    let open_captures = ref [] in
    (* A start tag stays unterminated ([<tag attrs]) until the element's
       first child or its end, so a childless element is written
       [<tag attrs/>] — byte for byte what the DOM serializer writes. *)
    let tag_open = ref false in
    let terminate_tag () =
      if !tag_open then begin
        List.iter (fun c -> Buffer.add_char c.buf '>') !open_captures;
        tag_open := false
      end
    in
    let cap_start ~candidate id tag attrs =
      terminate_tag ();
      if capture && candidate then
        open_captures :=
          { cap_node = id; buf = Buffer.create 64; open_elements = 0 }
          :: !open_captures;
      List.iter
        (fun c ->
          Buffer.add_char c.buf '<';
          Buffer.add_string c.buf tag;
          List.iter
            (fun (k, v) ->
              Buffer.add_char c.buf ' ';
              Buffer.add_string c.buf k;
              Buffer.add_string c.buf "=\"";
              Serializer.add_escaped_attr c.buf v 0 (String.length v);
              Buffer.add_char c.buf '"')
            attrs;
          c.open_elements <- c.open_elements + 1)
        !open_captures;
      tag_open := !open_captures <> []
    in
    let cap_end tag =
      List.iter
        (fun c ->
          if !tag_open then Buffer.add_string c.buf "/>"
          else begin
            Buffer.add_string c.buf "</";
            Buffer.add_string c.buf tag;
            Buffer.add_char c.buf '>'
          end;
          c.open_elements <- c.open_elements - 1)
        !open_captures;
      tag_open := false;
      open_captures :=
        List.filter
          (fun c ->
            if c.open_elements = 0 then begin
              Hashtbl.replace finished_captures c.cap_node
                (Buffer.contents c.buf);
              false
            end
            else true)
          !open_captures
    in
    let cap_text id content is_candidate =
      terminate_tag ();
      List.iter
        (fun c -> Buffer.add_string c.buf (Serializer.escape_text content))
        !open_captures;
      if capture && is_candidate then
        Hashtbl.replace finished_captures id (Serializer.escape_text content)
    in
    (* Every event is one checkpoint; start and text events take the next
       pre-order id.  The guards on [cap_start]/[cap_text] are exactly the
       conditions under which some capture buffer consumes the event. *)
    let rec loop () =
      match Pull.cursor_next pull with
      | Pull.Cursor_eof -> ()
      | Pull.Cursor_start ->
        checkpoint ();
        let id = !next_id in
        next_id := id + 1;
        let name = Pull.cur_name pull in
        let candidate =
          if parent_alive () then begin
            (match Engine.enter engine ~id ~kind:(Engine.El name) with
            | Engine.Alive -> stack := true :: !stack
            | Engine.Dead ->
              mark id Trace.Skipped_dead;
              stack := false :: !stack);
            Engine.entered_candidate engine
          end
          else begin
            skip_dead id;
            stack := false :: !stack;
            false
          end
        in
        if !open_captures <> [] || (capture && candidate) then
          cap_start ~candidate id name (Pull.cur_attrs pull);
        loop ()
      | Pull.Cursor_end ->
        checkpoint ();
        (match !stack with
        | [] -> raise (Engine.Driver_error "unbalanced end event")
        | alive :: rest ->
          if alive then Engine.leave engine;
          stack := rest);
        if !open_captures <> [] then cap_end (Pull.cur_name pull);
        loop ()
      | Pull.Cursor_text ->
        checkpoint ();
        let id = !next_id in
        next_id := id + 1;
        if parent_alive () then begin
          let backing, off, len = Pull.cur_text_span pull in
          match
            Engine.enter engine ~id ~kind:(Engine.Tx_sub (backing, off, len))
          with
          | Engine.Alive ->
            let candidate = Engine.entered_candidate engine in
            if !open_captures <> [] || (capture && candidate) then
              cap_text id (Pull.cur_text pull) candidate;
            Engine.leave engine
          | Engine.Dead ->
            if !open_captures <> [] then cap_text id (Pull.cur_text pull) false
        end
        else begin
          skip_dead id;
          if !open_captures <> [] then cap_text id (Pull.cur_text pull) false
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
          Option.map (fun s -> (n, s)) (Hashtbl.find_opt finished_captures n))
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
