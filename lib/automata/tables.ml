(* Tag-specialized transition tables for an NFA.

   The generic evaluator steps the automaton by scanning [(test * state)
   list] rows and string-comparing element names per transition.  This
   module compiles those rows against a tag-id space into dense arrays so
   the hot path is [step.(tag_id).(state) -> int array] — no string
   comparison, no list walk.

   Two construction modes share the representation:

   - {e frozen} ([of_tree]): the tag-id space is the document's interned
     tag table ([Tree.tag_id] alignment is guaranteed), every column is
     built eagerly, and the value is immutable afterwards — safe to share
     across domains via the plan cache.
   - {e dynamic} ([dynamic]): for streaming, where tags arrive as strings
     and the universe is unknown.  Element names mentioned by the
     automaton are pre-interned at build time; unseen stream tags are
     interned on the fly ([intern]) and get the shared wildcard column.
     Dynamic tables are mutable and must stay private to one run.

   Columns store the {e raw} matched transition targets per state — not
   epsilon-closed and with no check interpretation.  Closure, checks and
   qualifier conds are the evaluator's business; keeping the table dumb
   keeps one matching semantics ({!Nfa.matches_name}) and lets the same
   column serve item stepping, the lazy-DFA closure and the AFA
   contribute-upward scan. *)

module Tree = Smoqe_xml.Tree

let text_tag = Tree.text_tag
let unknown_tag = -1

type t = {
  nfa : Nfa.t;
  frozen : bool;
  source : Tree.t option;  (* the tree a frozen table was built for *)
  tag_ids : (string, int) Hashtbl.t;
  mutable n_tags : int;
  mutable step : int array array array;  (* step.(tag).(state) -> targets *)
  wild : int array array;  (* per-state Any_element targets: unknown tags *)
  spec_us : int;  (* wall time spent specializing, microseconds *)
}

let nfa t = t.nfa
let spec_us t = t.spec_us
let n_tags t = t.n_tags
let is_frozen t = t.frozen
(* A frozen table depends on the tree only through its tag interning, so
   it remains valid for any tree of the same tag lineage — in particular
   across the functional subtree updates, which preserve [tags_token]
   exactly when they intern no new tag.  A token mismatch (a new tag
   appeared) forces respecialization: the frozen columns would route the
   new tag id to the wildcard column and miss its [Element] edges. *)
let built_for t tree =
  match t.source with
  | Some tr -> tr == tree || Tree.tags_token tr = Tree.tags_token tree
  | None -> false

let no_targets : int array = [||]

(* Per-state [Any_element] targets; the column every unknown tag gets. *)
let wild_column (nfa : Nfa.t) =
  Array.map
    (fun row ->
      match
        List.filter_map
          (function Nfa.Any_element, s' -> Some s' | _ -> None)
          row
      with
      | [] -> no_targets
      | l -> Array.of_list l)
    nfa.Nfa.delta

let text_column (nfa : Nfa.t) =
  Array.map
    (fun row ->
      match
        List.filter_map
          (function Nfa.Text_node, s' -> Some s' | _ -> None)
          row
      with
      | [] -> no_targets
      | l -> Array.of_list l)
    nfa.Nfa.delta

(* Column for element tag [nm].  Rows with no [Element nm] edge alias the
   wildcard row; if no state mentions [nm] at all the whole wildcard
   column is shared (common for data-only tags the query never names). *)
let element_column (nfa : Nfa.t) wild nm =
  let n = Array.length nfa.Nfa.delta in
  let any_specific = ref false in
  let col = Array.make n no_targets in
  for s = 0 to n - 1 do
    let specific =
      List.filter_map
        (fun (test, s') ->
          if Nfa.matches_name test ~is_element:true ~name:nm then Some s'
          else None)
        nfa.Nfa.delta.(s)
    in
    (* [matches_name] admits Any_element too, so [specific] already merges
       the wildcard row; flag columns that differ from pure-wildcard. *)
    if List.length specific <> Array.length wild.(s) then any_specific := true;
    col.(s) <- (match specific with [] -> no_targets | l -> Array.of_list l)
  done;
  if !any_specific then col else wild

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let of_tree (nfa : Nfa.t) tree =
  let t0 = now_us () in
  let wild = wild_column nfa in
  let n_tags = Tree.n_tags tree in
  let step =
    Array.init n_tags (fun a ->
        if a = text_tag then text_column nfa
        else element_column nfa wild (Tree.tag_name tree a))
  in
  let tag_ids = Hashtbl.create (2 * n_tags) in
  for a = 0 to n_tags - 1 do
    Hashtbl.replace tag_ids (Tree.tag_name tree a) a
  done;
  {
    nfa;
    frozen = true;
    source = Some tree;
    tag_ids;
    n_tags;
    step;
    wild;
    spec_us = max 1 (now_us () - t0);
  }

let dynamic (nfa : Nfa.t) =
  let t0 = now_us () in
  let wild = wild_column nfa in
  let tag_ids = Hashtbl.create 32 in
  Hashtbl.replace tag_ids "#text" text_tag;
  (* Pre-intern every element name the automaton mentions, so a stream tag
     equal to a query name can never be mistaken for an unknown tag and
     sent down the wildcard-only column. *)
  let names = ref [] in
  Array.iter
    (List.iter (function
      | Nfa.Element nm, _ ->
        if not (Hashtbl.mem tag_ids nm) then begin
          Hashtbl.replace tag_ids nm (-1);
          (* placeholder; real ids assigned below in insertion order *)
          names := nm :: !names
        end
      | _ -> ()))
    nfa.Nfa.delta;
  let names = List.rev !names in
  let n = 1 + List.length names in
  let step = Array.make (max 4 (2 * n)) wild in
  step.(text_tag) <- text_column nfa;
  List.iteri
    (fun i nm ->
      let a = 1 + i in
      Hashtbl.replace tag_ids nm a;
      step.(a) <- element_column nfa wild nm)
    names;
  {
    nfa;
    frozen = false;
    source = None;
    tag_ids;
    n_tags = n;
    step;
    wild;
    spec_us = max 1 (now_us () - t0);
  }

(* Tag id for [nm].  Frozen tables never learn new tags: [unknown_tag]
   routes lookups to the wildcard column (a frozen table only sees names
   outside its tree via engine-internal probes, never from the driver).
   Dynamic tables grow: a stream tag the automaton does not name gets a
   fresh id whose column {e aliases} the wildcard column, so interning is
   O(1) amortized and the memo can still distinguish tags if the caller
   cares to. *)
let intern t nm =
  match Hashtbl.find_opt t.tag_ids nm with
  | Some a -> a
  | None ->
    if t.frozen then unknown_tag
    else begin
      let a = t.n_tags in
      if a >= Array.length t.step then begin
        let step = Array.make (2 * Array.length t.step) t.wild in
        Array.blit t.step 0 step 0 t.n_tags;
        t.step <- step
      end;
      t.step.(a) <- t.wild;
      t.n_tags <- a + 1;
      Hashtbl.replace t.tag_ids nm a;
      a
    end

let targets t state tag =
  if tag < 0 || tag >= t.n_tags then t.wild.(state) else t.step.(tag).(state)
