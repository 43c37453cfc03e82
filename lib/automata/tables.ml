(* Tag-specialized transition tables for an NFA.

   The generic evaluator steps the automaton by scanning [(test * state)
   list] rows and string-comparing element names per transition.  This
   module compiles those rows against a tag-id space into dense arrays so
   the hot path is [step.(tag_id).(state) -> int array] — no string
   comparison, no list walk.

   Two tag-id spaces share one immutable representation, built eagerly:

   - [of_tree]: the document's interned tag table ([Tree.tag_id]
     alignment is guaranteed), so the value can ride the plan cache and
     be shared across domains;
   - [of_nfa]: for streaming, where tags arrive as strings.  The element
     names the automaton mentions get their own columns; any other stream
     tag is [unknown_tag], whose column is the wildcard row.

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
  source : Tree.t option;  (* the tree an [of_tree] table was built for *)
  tag_ids : (string, int) Hashtbl.t;
  step : int array array array;  (* step.(tag).(state) -> targets *)
  wild : int array array;  (* per-state Any_element targets: unknown tags *)
  spec_us : int;  (* wall time spent specializing, microseconds *)
}

let nfa t = t.nfa
let spec_us t = t.spec_us

(* A tree's table depends on the tree only through its tag interning, so
   it remains valid for any tree of the same tag lineage — in particular
   across the functional subtree updates, which preserve [tags_token]
   exactly when they intern no new tag.  A token mismatch (a new tag
   appeared) forces respecialization: the columns would route the new tag
   id to the wildcard column and miss its [Element] edges. *)
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

(* Columns for the tag-id space [names] ([names.(a)] is the name of tag
   [a]; slot [text_tag] holds the text column). *)
let build (nfa : Nfa.t) source names =
  let t0 = now_us () in
  let wild = wild_column nfa in
  let step =
    Array.mapi
      (fun a nm ->
        if a = text_tag then text_column nfa else element_column nfa wild nm)
      names
  in
  let tag_ids = Hashtbl.create (2 * Array.length names) in
  Array.iteri (fun a nm -> Hashtbl.replace tag_ids nm a) names;
  { nfa; source; tag_ids; step; wild; spec_us = max 1 (now_us () - t0) }

let of_tree nfa tree =
  build nfa (Some tree) (Array.init (Tree.n_tags tree) (Tree.tag_name tree))

let of_nfa (nfa : Nfa.t) =
  let seen = Hashtbl.create 32 and names = ref [] in
  Array.iter
    (List.iter (function
      | Nfa.Element nm, _ when not (Hashtbl.mem seen nm) ->
        Hashtbl.replace seen nm ();
        names := nm :: !names
      | _ -> ()))
    nfa.Nfa.delta;
  build nfa None (Array.of_list ("#text" :: List.rev !names))

(* Tag id for [nm]: a name outside the table's space is [unknown_tag],
   which [targets] routes to the wildcard column. *)
let intern t nm =
  Option.value (Hashtbl.find_opt t.tag_ids nm) ~default:unknown_tag

let targets t state tag =
  if tag < 0 || tag >= Array.length t.step then t.wild.(state)
  else t.step.(tag).(state)
