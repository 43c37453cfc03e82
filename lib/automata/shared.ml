(* Prefix-sharing merge (see shared.mli for the soundness argument).

   The construction walks each member automaton in dependency order: a
   state is mapped into the merged graph once every external source of its
   incoming edges is mapped.  At that point its merged incoming-edge set is
   fully determined, and it is summarized as a signature

     (sorted external incoming as (merged source, label), sorted self labels)

   Two states with equal signatures have equal merged incoming-edge sets,
   hence equal incoming languages (self-loops contribute the same least
   fixpoint), so fusing them is sound.  Signatures are computed before the
   state is allocated, so a signature can never mention its own state — a
   lookup hit is always a genuine structural coincidence.  States that are
   ineligible (checks, atom accepts), unreachable (empty incoming), or part
   of a non-self cycle (broken conservatively) map to fresh states and
   register no signature.  The fused automaton is then quotiented
   ({!Optimize.minimize}) with the owner sets in the Select label. *)

type t = {
  mfa : Mfa.t;
  n_queries : int;
  owners : int array array;
  merged_states : int;
  member_states : int;
  prefix_hits : int;
  accept_width : int;
}

type in_label = L_edge of Nfa.test | L_eps

let rec remap_formula off = function
  | Afa.F_true -> Afa.F_true
  | Afa.F_atom i -> Afa.F_atom (i + off)
  | Afa.F_not f -> Afa.F_not (remap_formula off f)
  | Afa.F_and (f, g) -> Afa.F_and (remap_formula off f, remap_formula off g)
  | Afa.F_or (f, g) -> Afa.F_or (remap_formula off f, remap_formula off g)

let merge (mfas : Mfa.t array) : t =
  let n_queries = Array.length mfas in
  if n_queries = 0 then invalid_arg "Shared.merge: empty batch";
  let b = Mfa.create_builder () in
  let root = Mfa.fresh_state b in
  (* signature -> merged state, shared across the whole batch *)
  let sig_table : (((int * in_label) list * in_label list), int) Hashtbl.t =
    Hashtbl.create 256
  in
  let owners_tbl : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let prefix_hits = ref 0 in
  let member_states = ref 0 in
  let atom_off = ref 0 in
  let qual_off = ref 0 in
  Array.iteri
    (fun q mfa ->
      let nfa = mfa.Mfa.nfa in
      let n = nfa.Nfa.n_states in
      member_states := !member_states + n;
      (* Ineligible for unification: fusion unions outgoing behavior, not
         labels, so guarded states and atom accepts stay fresh. *)
      let fresh_req =
        Array.init n (fun s ->
            nfa.Nfa.checks.(s) <> []
            || List.exists
                 (function Nfa.Atom_accept _ -> true | Nfa.Select -> false)
                 nfa.Nfa.accepts.(s))
      in
      (* Incoming adjacency; the query start gets a virtual epsilon from
         the merged root (src = -1), matching the edge added below. *)
      let incoming = Array.make n [] in
      for s = 0 to n - 1 do
        List.iter
          (fun (test, s') -> incoming.(s') <- (s, L_edge test) :: incoming.(s'))
          nfa.Nfa.delta.(s);
        List.iter
          (fun s' -> incoming.(s') <- (s, L_eps) :: incoming.(s'))
          nfa.Nfa.eps.(s)
      done;
      incoming.(mfa.Mfa.start) <- (-1, L_eps) :: incoming.(mfa.Mfa.start);
      let map = Array.make n (-1) in
      let msrc s = if s = -1 then root else map.(s) in
      let remaining = ref n in
      while !remaining > 0 do
        let progress = ref false in
        for s = 0 to n - 1 do
          if map.(s) < 0 then begin
            let self, ext =
              List.partition (fun (src, _) -> src = s) incoming.(s)
            in
            if List.for_all (fun (src, _) -> src = -1 || map.(src) >= 0) ext
            then begin
              let ms =
                if fresh_req.(s) || ext = [] then Mfa.fresh_state b
                else begin
                  let key =
                    ( List.sort_uniq compare
                        (List.map (fun (src, l) -> (msrc src, l)) ext),
                      List.sort_uniq compare (List.map snd self) )
                  in
                  match Hashtbl.find_opt sig_table key with
                  | Some m ->
                      incr prefix_hits;
                      m
                  | None ->
                      let m = Mfa.fresh_state b in
                      Hashtbl.add sig_table key m;
                      m
                end
              in
              map.(s) <- ms;
              decr remaining;
              progress := true
            end
          end
        done;
        if (not !progress) && !remaining > 0 then begin
          (* a cycle that is not a pure self-loop: break it conservatively
             by mapping its lowest state fresh (no signature registered) *)
          let s = ref 0 in
          while map.(!s) >= 0 do
            incr s
          done;
          map.(!s) <- Mfa.fresh_state b;
          decr remaining
        end
      done;
      (* Atoms and qualifiers, ids offset per query. *)
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
      (* Structure: edges, checks, accepts.  [freeze] dedups, so edges a
         fused state inherited from an earlier query are added once. *)
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
                let prev =
                  Option.value ~default:[] (Hashtbl.find_opt owners_tbl map.(s))
                in
                Hashtbl.replace owners_tbl map.(s) (q :: prev)
            | Nfa.Atom_accept id ->
                Mfa.add_accept_atom b map.(s) (!atom_off + id))
          nfa.Nfa.accepts.(s)
      done;
      Mfa.add_eps b root map.(mfa.Mfa.start);
      atom_off := !atom_off + Array.length mfa.Mfa.atoms;
      qual_off := !qual_off + Array.length mfa.Mfa.quals)
    mfas;
  let fused = Mfa.freeze b ~start:root in
  let fused_owners = Array.make (Mfa.n_states fused) [||] in
  Hashtbl.iter
    (fun s qs -> fused_owners.(s) <- Array.of_list (List.sort_uniq compare qs))
    owners_tbl;
  (* Owner sets are part of the Select label, so every state of a class
     has the class's owners. *)
  let mfa, map = Optimize.minimize ~owners:fused_owners fused in
  let merged_states = Mfa.n_states mfa in
  let owners = Array.make merged_states [||] in
  let accept_width = ref 0 in
  Array.iteri
    (fun s m ->
      if m >= 0 && fused_owners.(s) <> [||] then begin
        owners.(m) <- fused_owners.(s);
        accept_width := max !accept_width (Array.length fused_owners.(s))
      end)
    map;
  {
    mfa;
    n_queries;
    owners;
    merged_states;
    member_states = !member_states;
    prefix_hits = !prefix_hits;
    accept_width = !accept_width;
  }

let saved_states t = t.member_states - t.merged_states
