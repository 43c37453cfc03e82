(* Batch merge: the disjoint union of the members under one fresh root,
   quotiented by [Optimize.minimize] with each Select state's owner in its
   label (see shared.mli for why no prefix fusion precedes the quotient). *)

type t = {
  mfa : Mfa.t;
  n_queries : int;
  owners : int array;
  merged_states : int;
  member_states : int;
}

let rec remap_formula off = function
  | Afa.F_true -> Afa.F_true
  | Afa.F_atom i -> Afa.F_atom (i + off)
  | Afa.F_not f -> Afa.F_not (remap_formula off f)
  | Afa.F_and (f, g) -> Afa.F_and (remap_formula off f, remap_formula off g)
  | Afa.F_or (f, g) -> Afa.F_or (remap_formula off f, remap_formula off g)

(* The members' disjoint union under one fresh root with an epsilon edge
   to every member's start, and the union's owner table. *)
let union_of (mfas : Mfa.t array) member_states =
  let b = Mfa.create_builder () in
  let root = Mfa.fresh_state b in
  (* union state -> the member selecting there, or -1 *)
  let union_owners = Array.make (1 + member_states) (-1) in
  let atom_off = ref 0 in
  let qual_off = ref 0 in
  Array.iteri
    (fun q mfa ->
      let nfa = mfa.Mfa.nfa in
      let n = nfa.Nfa.n_states in
      (* member state [s] is union state [map.(s)], private to [q] *)
      let map = Array.init n (fun _ -> Mfa.fresh_state b) in
      Array.iteri
        (fun i (a : Afa.atom) ->
          let id = Mfa.add_atom b ~start:map.(a.Afa.start) ~value:a.Afa.value in
          assert (id = !atom_off + i))
        mfa.Mfa.atoms;
      Array.iteri
        (fun i f ->
          let id = Mfa.add_qual b (remap_formula !atom_off f) in
          assert (id = !qual_off + i))
        mfa.Mfa.quals;
      for s = 0 to n - 1 do
        List.iter
          (fun (test, s') -> Mfa.add_edge b map.(s) test map.(s'))
          nfa.Nfa.delta.(s);
        List.iter (fun s' -> Mfa.add_eps b map.(s) map.(s')) nfa.Nfa.eps.(s);
        List.iter (fun qid -> Mfa.add_check b map.(s) (!qual_off + qid))
          nfa.Nfa.checks.(s);
        List.iter
          (function
            | Nfa.Select ->
                Mfa.add_select b map.(s);
                union_owners.(map.(s)) <- q
            | Nfa.Atom_accept id ->
                Mfa.add_accept_atom b map.(s) (!atom_off + id))
          nfa.Nfa.accepts.(s)
      done;
      Mfa.add_eps b root map.(mfa.Mfa.start);
      atom_off := !atom_off + Array.length mfa.Mfa.atoms;
      qual_off := !qual_off + Array.length mfa.Mfa.quals)
    mfas;
  (Mfa.freeze b ~start:root, union_owners)

let merge (mfas : Mfa.t array) : t =
  let n_queries = Array.length mfas in
  if n_queries = 0 then invalid_arg "Shared.merge: empty batch";
  let member_states =
    Array.fold_left (fun n m -> n + Mfa.n_states m) 0 mfas
  in
  if n_queries = 1 then begin
    (* A batch of one is its member as given, with no root: there is no
       other member to share with, and a compiled plan is already
       quotiented ({!Optimize.optimize}). *)
    let mfa = mfas.(0) in
    let owners =
      Array.map
        (fun accepts -> if List.mem Nfa.Select accepts then 0 else -1)
        mfa.Mfa.nfa.Nfa.accepts
    in
    { mfa; n_queries; owners; merged_states = member_states; member_states }
  end
  else begin
    let union, union_owners = union_of mfas member_states in
    (* The owner is part of the Select label, so every state of a class
       has the class's owner. *)
    let mfa, map = Optimize.minimize ~owners:union_owners union in
    let merged_states = Mfa.n_states mfa in
    let owners = Array.make merged_states (-1) in
    Array.iteri
      (fun s m ->
        if m >= 0 && union_owners.(s) >= 0 then owners.(m) <- union_owners.(s))
      map;
    { mfa; n_queries; owners; merged_states; member_states }
  end

let saved_states t = t.member_states - t.merged_states
