type error = {
  node : Tree.node;
  element : string;
  message : string;
}

let pp_error ppf e =
  Fmt.pf ppf "node %d <%s>: %s" e.node e.element e.message

(* Brzozowski derivatives over content-model regexes; smart constructors
   keep the intermediate regexes compact.  [matches] derives directly and
   is the reference; [validate] runs the same derivatives compiled into
   DFAs (below). *)

let seq a b =
  match a, b with
  | Dtd.Eps, r | r, Dtd.Eps -> r
  | _ -> Dtd.Seq (a, b)

let alt a b = if a = b then a else Dtd.Alt (a, b)

(* The empty language, encoded without extending Dtd.regex: we use a
   dedicated name that cannot clash with element names. *)
let void = Dtd.Name "\000void"

let is_void r = r = void

let rec nullable = function
  | Dtd.Eps -> true
  | Dtd.Name _ | Dtd.Pcdata -> false
  | Dtd.Seq (a, b) -> nullable a && nullable b
  | Dtd.Alt (a, b) -> nullable a || nullable b
  | Dtd.Star _ | Dtd.Opt _ -> true
  | Dtd.Plus r -> nullable r

let rec deriv sym = function
  | Dtd.Eps -> void
  | Dtd.Name s -> if s = sym then Dtd.Eps else void
  | Dtd.Pcdata -> if sym = "#text" then Dtd.Eps else void
  | Dtd.Seq (a, b) ->
    let da = deriv sym a in
    let left = if is_void da then void else seq da b in
    if nullable a then begin
      let db = deriv sym b in
      if is_void left then db else if is_void db then left else alt left db
    end
    else left
  | Dtd.Alt (a, b) ->
    let da = deriv sym a and db = deriv sym b in
    if is_void da then db else if is_void db then da else alt da db
  | Dtd.Star r as star ->
    let dr = deriv sym r in
    if is_void dr then void else seq dr star
  | Dtd.Plus r ->
    let dr = deriv sym r in
    if is_void dr then void else seq dr (Dtd.Star r)
  | Dtd.Opt r -> deriv sym r

let matches r names =
  let rec go r = function
    | [] -> nullable r
    | sym :: rest ->
      let d = deriv sym r in
      if is_void d then false else go d rest
  in
  go r names

(* ------------------------------------------------------------------ *)
(* Compiled validation.  Each [Children] content model is a DFA whose
   states are its derivatives, interned by structural equality, so a
   derivative is computed once per (state, tag) pair and not once per
   element.  Transition rows are indexed by the tree's tag ids and
   filled lazily.  One state table serves every content model of one
   [validate] call: equal derivatives of different models share a
   state. *)

let unknown = -2
let dead = -1

type state = {
  regex : Dtd.regex; (* the derivative this state stands for *)
  accept : bool;
  row : int array; (* tag id -> next state, [unknown] until computed *)
}

type dfa = {
  tree : Tree.t; (* whose tag ids index the rows *)
  ids : (Dtd.regex, int) Hashtbl.t; (* derivative -> state *)
  mutable states : state array;
  mutable n : int;
}

let state d r =
  match Hashtbl.find_opt d.ids r with
  | Some s -> s
  | None ->
    let s = d.n in
    let st =
      { regex = r; accept = nullable r;
        row = Array.make (Tree.n_tags d.tree) unknown }
    in
    if s = Array.length d.states then begin
      let grown = Array.make (2 * s + 1) st in
      Array.blit d.states 0 grown 0 s;
      d.states <- grown
    end;
    d.states.(s) <- st;
    d.n <- s + 1;
    Hashtbl.add d.ids r s;
    s

let step d s tag =
  let st = d.states.(s) in
  let next = st.row.(tag) in
  if next <> unknown then next
  else begin
    let r = deriv (Tree.tag_name d.tree tag) st.regex in
    let next = if is_void r then dead else state d r in
    st.row.(tag) <- next;
    next
  end

(* A content model resolved for one tag id of the tree. *)
type model =
  | Undeclared
  | Any
  | Empty
  | Mixed of bool array (* allowed child tag ids *)
  | Children of Dtd.regex * int (* the model and its start state *)

let compile dtd t =
  let d = { tree = t; ids = Hashtbl.create 16; states = [||]; n = 0 } in
  let n_tags = Tree.n_tags t in
  let models =
    Array.init n_tags (fun id ->
        if id = Tree.text_tag then Any
        else
          match Dtd.content dtd (Tree.tag_name t id) with
          | None -> Undeclared
          | Some Dtd.Any -> Any
          | Some Dtd.Empty -> Empty
          | Some (Dtd.Mixed allowed) ->
            Mixed
              (Array.init n_tags (fun j ->
                   j <> Tree.text_tag && List.mem (Tree.tag_name t j) allowed))
          | Some (Dtd.Children r) -> Children (r, state d r))
  in
  (d, models)

(* Only for an error message: the element children's names. *)
let element_names t n =
  List.rev
    (Tree.fold_children t n ~init:[] ~f:(fun acc c ->
         if Tree.is_text t c then acc else Tree.name t c :: acc))

let error t n message = { node = n; element = Tree.name t n; message }

(* Children are walked as [n + 1] then [subtree_end] of each child, up to
   [subtree_end n]: no list, no allocation on a valid element. *)
let check_element d models t n errors =
  let stop = Tree.subtree_end t n in
  match models.(Tree.tag_id t n) with
  | Undeclared -> error t n "undeclared element type" :: errors
  | Any -> errors
  | Empty ->
    if stop = n + 1 then errors
    else error t n "EMPTY element has children" :: errors
  | Mixed allowed ->
    let errors = ref errors in
    let c = ref (n + 1) in
    while !c < stop do
      let tg = Tree.tag_id t !c in
      if tg <> Tree.text_tag && not allowed.(tg) then
        errors :=
          error t n
            (Printf.sprintf "element %s not allowed in mixed content"
               (Tree.tag_name t tg))
          :: !errors;
      c := Tree.subtree_end t !c
    done;
    !errors
  | Children (r, start) ->
    let text = ref false and s = ref start in
    let c = ref (n + 1) in
    while !c < stop do
      let tg = Tree.tag_id t !c in
      if tg = Tree.text_tag then text := true
      else if !s <> dead then s := step d !s tg;
      c := Tree.subtree_end t !c
    done;
    (* Element content: text children are invalid outright. *)
    let errors =
      if !text then error t n "text in element content" :: errors else errors
    in
    if !s <> dead && d.states.(!s).accept then errors
    else
      error t n
        (Fmt.str "children (%a) do not match content model %a"
           Fmt.(list ~sep:comma string)
           (element_names t n) Dtd.pp_regex r)
      :: errors

(* The root check, then the elements of [ranges] (pre-order id ranges,
   in document order). *)
let check_nodes dtd t ranges =
  let errors = ref [] in
  if Tree.name t Tree.root <> Dtd.root dtd then
    errors :=
      [
        {
          node = Tree.root;
          element = Tree.name t Tree.root;
          message =
            Printf.sprintf "root element is not %s" (Dtd.root dtd);
        };
      ];
  let d, models = compile dtd t in
  List.iter
    (fun (lo, hi) ->
      for n = lo to hi - 1 do
        if Tree.is_element t n then
          errors := check_element d models t n !errors
      done)
    ranges;
  match List.rev !errors with [] -> Ok () | es -> Error es

let validate dtd t = check_nodes dtd t [ (0, Tree.n_nodes t) ]

(* An element's check reads only its own tag and its children's, so an
   edit can break only the parent whose children changed and the new
   material. *)
let validate_edit dtd t ~parent ~lo ~hi =
  check_nodes dtd t
    (if parent < 0 then [ (lo, hi) ] else [ (parent, parent + 1); (lo, hi) ])

let is_valid dtd t = Result.is_ok (validate dtd t)
