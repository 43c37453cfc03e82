type report = {
  states_before : int;
  states_after : int;
  transitions_before : int;
  transitions_after : int;
  quals_before : int;
  quals_after : int;
  atoms_before : int;
  atoms_after : int;
}

let pp_report ppf r =
  Fmt.pf ppf
    "states %d -> %d, transitions %d -> %d, quals %d -> %d, atoms %d -> %d"
    r.states_before r.states_after r.transitions_before r.transitions_after
    r.quals_before r.quals_after r.atoms_before r.atoms_after

(* States reachable from [s] through epsilon edges that never cross a
   check-guarded state: their behaviour can be folded into [s].  [s] itself
   is included whatever its checks (they guard entry into [s], which the
   fold does not change).  [seen] is scratch, all false on entry and on
   return. *)
let checkfree_closure (nfa : Nfa.t) seen s =
  let closure = ref [] in
  let rec visit u =
    if not seen.(u) then begin
      seen.(u) <- true;
      closure := u :: !closure;
      List.iter
        (fun v -> if nfa.Nfa.checks.(v) = [] then visit v)
        nfa.Nfa.eps.(u)
    end
  in
  visit s;
  List.iter (fun u -> seen.(u) <- false) !closure;
  !closure

(* Epsilon successors that must survive: check-guarded targets reachable
   from the closure. *)
let guarded_eps_frontier (nfa : Nfa.t) closure =
  List.concat_map
    (fun u ->
      List.filter (fun v -> nfa.Nfa.checks.(v) <> []) nfa.Nfa.eps.(u))
    closure
  |> List.sort_uniq compare

(* --- bisimulation quotient ------------------------------------------------ *)

(* Signatures are int arrays; equal signatures get one class id, and ids
   are numbered in order of first occurrence. *)
module Sig_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) (b : int array) =
    let n = Array.length a in
    let rec from i = i >= n || (a.(i) = b.(i) && from (i + 1)) in
    n = Array.length b && from 0

  let hash (a : int array) =
    Array.fold_left (fun h x -> (h * 65599) + x) (Array.length a) a
    land max_int
end)

let intern tbl key ~first =
  match Sig_tbl.find_opt tbl key with
  | Some c -> c
  | None ->
    let c = first + Sig_tbl.length tbl in
    Sig_tbl.add tbl key c;
    c

(* Class ids by signature of the [items] among [0 .. n-1], the others -1,
   and the number of classes. *)
let classify n items sig_of =
  let tbl = Sig_tbl.create (Array.length items + 1) in
  let cls = Array.make n (-1) in
  Array.iter (fun i -> cls.(i) <- intern tbl (sig_of i) ~first:0) items;
  (cls, Sig_tbl.length tbl)

(* A formula in preorder with its atoms replaced by their classes
   (non-negative); connectives are negative, so the code is unambiguous. *)
let rec encode atom_cls acc = function
  | Afa.F_true -> -1 :: acc
  | Afa.F_atom a -> atom_cls.(a) :: acc
  | Afa.F_not f -> -2 :: encode atom_cls acc f
  | Afa.F_and (f, g) -> -3 :: encode atom_cls (encode atom_cls acc g) f
  | Afa.F_or (f, g) -> -4 :: encode atom_cls (encode atom_cls acc g) f

let sorted_uniq l = List.sort_uniq Int.compare l

(* Int code of a string, interned in [tbl]. *)
let name_code tbl name =
  match Hashtbl.find_opt tbl name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length tbl in
    Hashtbl.add tbl name i;
    i

(* An MFA's parts, before they are frozen into one. *)
type graph = {
  start : Nfa.state;
  delta : (Nfa.test * Nfa.state) list array;
  eps : Nfa.state list array;
  checks : int list array;
  accepts : Nfa.accept list array;
  quals : Afa.formula array;
  atoms : Afa.atom array;
}

let quotient ?owners g =
  let atoms = g.atoms and quals = g.quals in
  let n = Array.length g.delta in
  (* Only states reachable from the start or an atom entry are
     partitioned; the others keep class -1 and are dropped. *)
  let reached = Array.make n false and states = ref [] in
  let rec reach s =
    if not reached.(s) then begin
      reached.(s) <- true;
      states := s :: !states;
      List.iter (fun (_, v) -> reach v) g.delta.(s);
      List.iter reach g.eps.(s)
    end
  in
  reach g.start;
  Array.iter (fun (a : Afa.atom) -> reach a.Afa.start) atoms;
  let states = Array.of_list !states in
  Array.sort Int.compare states;
  let all_atoms = Array.init (Array.length atoms) Fun.id
  and all_quals = Array.init (Array.length quals) Fun.id in
  (* Node tests and atom values as ints, interned once. *)
  let names = Hashtbl.create 16 and values = Hashtbl.create 8 in
  let steps =
    Array.map
      (List.map (fun (test, v) ->
           let code =
             match test with
             | Nfa.Any_element -> 0
             | Nfa.Text_node -> 1
             | Nfa.Element name -> 2 + name_code names name
           in
           (code, v)))
      g.delta
  in
  let atom_value =
    Array.map
      (fun (a : Afa.atom) ->
        match a.Afa.value with None -> 0 | Some c -> 1 + name_code values c)
      atoms
  in
  (* The initial partition is the accept label: the Select mark (its owner,
     on a merged plan) and the atom-accept value constraints. *)
  let label s =
    let select = ref 0 and vals = ref [] in
    List.iter
      (function
        | Nfa.Select ->
          select := (match owners with None -> 1 | Some ow -> 1 + ow.(s))
        | Nfa.Atom_accept a -> vals := atom_value.(a) :: !vals)
      g.accepts.(s);
    Array.of_list (!select :: sorted_uniq !vals)
  in
  (* Refinement: atoms by (start class, value), qualifiers by their formula
     over atom classes, states by (class, checked qualifier classes,
     (test, successor class) pairs, epsilon successor classes).  An
     epsilon edge into the state's own class moves to an equivalent state
     at the same node, so it is left out.  The class leads the signature,
     so each round refines the last, and an unchanged count means the
     partition is stable. *)
  let rec refine cls n_cls =
    let atom_cls, _ =
      classify (Array.length atoms) all_atoms (fun a ->
          [| cls.(atoms.(a).Afa.start); atom_value.(a) |])
    in
    let qual_cls, n_qcls =
      classify (Array.length quals) all_quals (fun q ->
          Array.of_list (encode atom_cls [] quals.(q)))
    in
    let signature s =
      let own = cls.(s) in
      let checks =
        sorted_uniq (List.map (fun q -> qual_cls.(q)) g.checks.(s))
      in
      let moves =
        sorted_uniq (List.map (fun (t, v) -> (t * n) + cls.(v)) steps.(s))
      in
      let eps =
        sorted_uniq
          (List.filter_map
             (fun v -> if cls.(v) = own then None else Some cls.(v))
             g.eps.(s))
      in
      Array.of_list
        (own :: List.length checks
         :: (checks @ (List.length moves :: (moves @ eps))))
    in
    let cls', n_cls' = classify n states signature in
    if n_cls' = n_cls then (cls, n_cls, qual_cls, n_qcls)
    else refine cls' n_cls'
  in
  let cls, n_cls, qual_cls, n_qcls =
    let cls0, n0 = classify n states label in
    refine cls0 n0
  in
  let rep = Array.make n_cls 0 and qual_rep = Array.make n_qcls 0 in
  for i = Array.length states - 1 downto 0 do
    rep.(cls.(states.(i))) <- states.(i)
  done;
  for q = Array.length quals - 1 downto 0 do
    qual_rep.(qual_cls.(q)) <- q
  done;
  (* Live classes: reachable from the start and from the atoms of every
     qualifier a live class checks.  Other qualifiers are dropped. *)
  let live = Array.make n_cls false and qual_live = Array.make n_qcls false in
  let rec visit c =
    if not live.(c) then begin
      live.(c) <- true;
      let s = rep.(c) in
      List.iter (fun (_, v) -> visit cls.(v)) g.delta.(s);
      List.iter (fun v -> visit cls.(v)) g.eps.(s);
      List.iter
        (fun q ->
          let k = qual_cls.(q) in
          if not qual_live.(k) then begin
            qual_live.(k) <- true;
            List.iter
              (fun a -> visit cls.(atoms.(a).Afa.start))
              (Afa.atoms_of quals.(q))
          end)
        g.checks.(s)
    end
  in
  visit cls.(g.start);
  let b = Mfa.create_builder () in
  let new_id = Array.make n_cls (-1) in
  for c = 0 to n_cls - 1 do
    if live.(c) then new_id.(c) <- Mfa.fresh_state b
  done;
  (* One atom per (start, value). *)
  let atom_ids = Hashtbl.create 16 in
  let n_values = 1 + Hashtbl.length values in
  let atom_id start a =
    let key = (start * n_values) + atom_value.(a) in
    match Hashtbl.find_opt atom_ids key with
    | Some id -> id
    | None ->
      let id = Mfa.add_atom b ~start ~value:atoms.(a).Afa.value in
      Hashtbl.add atom_ids key id;
      id
  in
  let rec map_formula = function
    | Afa.F_true -> Afa.F_true
    | Afa.F_atom a -> Afa.F_atom (atom_id new_id.(cls.(atoms.(a).Afa.start)) a)
    | Afa.F_not f -> Afa.F_not (map_formula f)
    | Afa.F_and (f, g) ->
      let f = map_formula f in
      Afa.F_and (f, map_formula g)
    | Afa.F_or (f, g) ->
      let f = map_formula f in
      Afa.F_or (f, map_formula g)
  in
  let qual_id = Array.make n_qcls (-1) in
  for k = 0 to n_qcls - 1 do
    if qual_live.(k) then
      qual_id.(k) <- Mfa.add_qual b (map_formula quals.(qual_rep.(k)))
  done;
  (* Every member of a class has the representative's edges up to classes,
     so the representative's edges, mapped, are the class's.  [freeze]
     drops duplicates and epsilon self-loops. *)
  for c = 0 to n_cls - 1 do
    if live.(c) then begin
      let s = rep.(c) and s' = new_id.(c) in
      List.iter
        (fun (test, v) -> Mfa.add_edge b s' test new_id.(cls.(v)))
        g.delta.(s);
      List.iter (fun v -> Mfa.add_eps b s' new_id.(cls.(v))) g.eps.(s);
      List.iter
        (fun q -> Mfa.add_check b s' qual_id.(qual_cls.(q)))
        g.checks.(s);
      List.iter
        (function
          | Nfa.Select -> Mfa.add_select b s'
          | Nfa.Atom_accept a ->
            (* an atom accept is read only through its value, so any atom
               with that value serves: the atom's own when its start is
               live *)
            let start = new_id.(cls.(atoms.(a).Afa.start)) in
            Mfa.add_accept_atom b s'
              (atom_id (if start >= 0 then start else s') a))
        g.accepts.(s)
    end
  done;
  ( Mfa.freeze b ~start:new_id.(cls.(g.start)),
    Array.map (fun c -> if c < 0 then -1 else new_id.(c)) cls )

let minimize ?owners (mfa : Mfa.t) =
  let nfa = mfa.Mfa.nfa in
  quotient ?owners
    {
      start = mfa.Mfa.start;
      delta = nfa.Nfa.delta;
      eps = nfa.Nfa.eps;
      checks = nfa.Nfa.checks;
      accepts = nfa.Nfa.accepts;
      quals = mfa.Mfa.quals;
      atoms = mfa.Mfa.atoms;
    }

let optimize_with_report (mfa : Mfa.t) =
  let nfa = mfa.Mfa.nfa in
  let n = nfa.Nfa.n_states in
  (* Transitions into states that can never accept are useless. *)
  let needs = Reachability.compute nfa in
  let dead s = needs.(s) = Reachability.All in
  (* Folded view of every state. *)
  let closure =
    let seen = Array.make n false in
    Array.init n (checkfree_closure nfa seen)
  in
  let folded =
    {
      start = mfa.Mfa.start;
      delta =
        Array.init n (fun s ->
            List.concat_map
              (fun u ->
                List.filter (fun (_, v) -> not (dead v)) nfa.Nfa.delta.(u))
              closure.(s)
            |> List.sort_uniq compare);
      eps =
        Array.init n (fun s ->
            guarded_eps_frontier nfa closure.(s)
            |> List.filter (fun v -> not (dead v)));
      checks = nfa.Nfa.checks;
      accepts =
        Array.init n (fun s ->
            List.concat_map (fun u -> nfa.Nfa.accepts.(u)) closure.(s)
            |> List.sort_uniq compare);
      quals = mfa.Mfa.quals;
      atoms = mfa.Mfa.atoms;
    }
  in
  let optimized, _ = quotient folded in

  ( optimized,
    {
      states_before = n;
      states_after = Mfa.n_states optimized;
      transitions_before = Nfa.n_transitions nfa;
      transitions_after = Mfa.n_transitions optimized;
      quals_before = Mfa.n_quals mfa;
      quals_after = Mfa.n_quals optimized;
      atoms_before = Mfa.n_atoms mfa;
      atoms_after = Mfa.n_atoms optimized;
    } )

let optimize mfa = fst (optimize_with_report mfa)
