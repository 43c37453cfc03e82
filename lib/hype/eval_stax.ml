module Pull = Smoqe_xml.Pull
module Tree = Smoqe_xml.Tree
module Serializer = Smoqe_xml.Serializer
module Budget = Smoqe_robust.Budget
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

(* Per open element: was the engine entered for it, and are its children
   processed?  Children of a Dead node are skipped without engine calls,
   but still consume pre-order ids so that answers align with DOM ids. *)
type level =
  | Entered_alive
  | Skipped

(* An in-flight capture of a candidate subtree: everything scanned while
   it is open is appended (including regions the engine skipped — they
   are part of the fragment even if no run is alive there). *)
type capture = {
  cap_node : int;
  buf : Buffer.t;
  mutable open_elements : int;
}

(* [run_core] is written against three per-event handlers rather than an
   event stream: both drivers below (a parser cursor, a tree walk) feed
   the engine shared names and borrowed [Tx_sub] text spans, so on the
   fast path (no capture in progress) nothing is copied.  Attribute lists
   and text copies are behind thunks, forced only while a capture is
   actually recording. *)
let run_core ~capture ?budget ?trace ~use_tables ?memo_cap ?shared mfa drive =
  (* Streaming has no tag universe up front: the table covers the
     automaton's element names, and any other stream tag takes the
     wildcard column. *)
  let tables =
    if use_tables then
      Some (Smoqe_automata.Tables.of_nfa mfa.Smoqe_automata.Mfa.nfa)
    else None
  in
  let engine =
    Engine.create ?trace ?tables ?memo_cap
      ?owners:(Option.map (fun sh -> sh.Shared.owners) shared)
      ?n_queries:(Option.map (fun sh -> sh.Shared.n_queries) shared)
      mfa
  in
  let stats = Engine.stats engine in
  (match tables with
  | Some tb ->
    stats.Stats.table_spec_us <- Smoqe_automata.Tables.spec_us tb
  | None -> ());
  Option.iter (Stats.note_shared stats) shared;
  let ticks = ref 0 in
  let checkpoint =
    (* Same amortization as Eval_dom: one local increment per event, the
       budget settles every 32 events, the Cans size is audited every 256,
       and a final settlement covers short streams. *)
    match budget with
    | None -> fun () -> Failpoint.trigger "hype.step"
    | Some b ->
      fun () ->
        Failpoint.trigger "hype.step";
        let k = !ticks + 1 in
        ticks := k;
        if k land 31 = 0 then begin
          Budget.tick_nodes b 32;
          if k land 255 = 0 then Budget.check_cans b (Engine.cans_size engine)
        end
  in
  let final_check () =
    match budget with
    | None -> ()
    | Some b ->
      (match !ticks land 31 with
      | 0 -> ()
      | rest -> Budget.tick_nodes b rest);
      Budget.check_cans b (Engine.cans_size engine);
      Budget.check_deadline b
  in
  let next_id = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let stack = ref [] in
  let mark id m = match trace with None -> () | Some tr -> Trace.mark tr id m in
  let parent_alive () =
    match !stack with [] -> true | level :: _ -> level = Entered_alive
  in
  (* capturing *)
  let open_captures = ref [] in
  let finished_captures : (int, string) Hashtbl.t = Hashtbl.create 16 in
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
            Hashtbl.replace finished_captures c.cap_node (Buffer.contents c.buf);
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
  (* Attribute/text thunks are forced only when some capture buffer will
     consume the result — the guards mirror the no-op conditions of
     [cap_start]/[cap_text], so behaviour is unchanged. *)
  let on_start name attrs_fn =
    checkpoint ();
    let id = fresh_id () in
    if parent_alive () then begin
      (match Engine.enter engine ~id ~kind:(Engine.El name) with
      | Engine.Alive -> stack := Entered_alive :: !stack
      | Engine.Dead ->
        mark id Trace.Skipped_dead;
        stack := Skipped :: !stack);
      let candidate = Engine.entered_candidate engine in
      if !open_captures <> [] || (capture && candidate) then
        cap_start ~candidate id name (attrs_fn ())
    end
    else begin
      stats.Stats.nodes_skipped_dead <- stats.Stats.nodes_skipped_dead + 1;
      mark id Trace.Skipped_dead;
      stack := Skipped :: !stack;
      if !open_captures <> [] then
        cap_start ~candidate:false (-1) name (attrs_fn ())
    end
  in
  let on_end name =
    checkpoint ();
    (match !stack with
    | [] -> raise (Engine.Driver_error "unbalanced end event")
    | level :: rest ->
      (match level with
      | Entered_alive -> Engine.leave engine
      | Skipped -> ());
      stack := rest);
    if !open_captures <> [] then cap_end name
  in
  let on_text kind content_fn =
    checkpoint ();
    let id = fresh_id () in
    if parent_alive () then begin
      match Engine.enter engine ~id ~kind with
      | Engine.Alive ->
        let candidate = Engine.entered_candidate engine in
        if !open_captures <> [] || (capture && candidate) then
          cap_text id (content_fn ()) candidate;
        Engine.leave engine
      | Engine.Dead ->
        if !open_captures <> [] then cap_text id (content_fn ()) false
    end
    else begin
      stats.Stats.nodes_skipped_dead <- stats.Stats.nodes_skipped_dead + 1;
      mark id Trace.Skipped_dead;
      if !open_captures <> [] then cap_text id (content_fn ()) false
    end
  in
  let budget_hit = ref None in
  (try
     drive ~on_start ~on_end ~on_text;
     final_check ()
   with Budget.Exceeded { what; limit } -> budget_hit := Some (what, limit));
  (engine, stats, finished_captures, !next_id, !budget_hit)

(* Zero-copy driver: names arrive interned from the cursor, text as a
   borrowed span consumed inside [on_text] (enter → capture → leave)
   before the next [cursor_next] invalidates it. *)
let drive_cursor pull ~on_start ~on_end ~on_text =
  let rec loop () =
    match Pull.cursor_next pull with
    | Pull.Cursor_eof -> ()
    | Pull.Cursor_start ->
      on_start (Pull.cur_name pull) (fun () -> Pull.cur_attrs pull);
      loop ()
    | Pull.Cursor_end ->
      on_end (Pull.cur_name pull);
      loop ()
    | Pull.Cursor_text ->
      let backing, off, len = Pull.cur_text_span pull in
      on_text
        (Engine.Tx_sub (backing, off, len))
        (fun () -> Pull.cur_text pull);
      loop ()
  in
  loop ()

(* In-place driver over a tree: pre-order ids [0 .. n-1] are document
   order, so an element closes exactly when the walk reaches its
   [subtree_end].  Open elements sit on an explicit int stack — depth
   costs heap, never native stack — and text arrives as a [Tx_sub] span
   into the tree's own byte regions, so the walk copies nothing. *)
let drive_tree tree ~on_start ~on_end ~on_text =
  let stack = ref (Array.make 64 0) and top = ref 0 in
  let close_before i =
    while !top > 0 && Tree.subtree_end tree !stack.(!top - 1) <= i do
      decr top;
      on_end (Tree.name tree !stack.(!top))
    done
  in
  let n = Tree.n_nodes tree in
  for i = 0 to n - 1 do
    close_before i;
    if Tree.is_text tree i then begin
      let backing, off, len = Tree.content_slice tree i in
      on_text
        (Engine.Tx_sub (backing, off, len))
        (fun () -> Tree.text_content tree i)
    end
    else begin
      on_start (Tree.name tree i) (fun () -> Tree.attributes tree i);
      if !top = Array.length !stack then begin
        let grown = Array.make (2 * !top) 0 in
        Array.blit !stack 0 grown 0 !top;
        stack := grown
      end;
      !stack.(!top) <- i;
      incr top
    end
  done;
  close_before n

type input =
  | Stream of Pull.t
  | Tree of Tree.t

let run_slots ?(capture = false) ?budget ?trace ?(use_tables = true) ?memo_cap
    ?shared mfa input =
  let drive =
    match input with
    | Stream pull -> drive_cursor pull
    | Tree tree -> drive_tree tree
  in
  let engine, stats, finished_captures, n_nodes, budget_hit =
    run_core ~capture ?budget ?trace ~use_tables ?memo_cap ?shared mfa drive
  in
  let by_query =
    match budget_hit with
    | None -> Engine.finish engine
    | Some _ -> Array.make (Engine.n_queries engine) []
  in
  (* Node ids are query-agnostic, so every slot reads its fragments from
     the one per-node capture store. *)
  let captured answers =
    if not capture then []
    else
      List.filter_map
        (fun n ->
          Option.map (fun s -> (n, s)) (Hashtbl.find_opt finished_captures n))
        answers
  in
  {
    by_query;
    by_query_captured = Array.map captured by_query;
    m_stats = stats;
    m_cans_size = Engine.cans_size engine;
    m_n_nodes = n_nodes;
    m_budget_hit = budget_hit;
  }

let run ?capture ?budget ?trace ?use_tables ?memo_cap mfa pull =
  let m =
    run_slots ?capture ?budget ?trace ?use_tables ?memo_cap mfa (Stream pull)
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
