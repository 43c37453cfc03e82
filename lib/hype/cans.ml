(* Append-only during the pass (the hot path: one cons per candidate);
   condition evaluation happens in the final resolution pass. *)
type t = {
  mutable entries : (int * Conds.set) list;
  mutable n_entries : int;
}

let create () = { entries = []; n_entries = 0 }

let add t ~node set =
  t.entries <- (node, set) :: t.entries;
  t.n_entries <- t.n_entries + 1

let size t = t.n_entries

let resolve t ~lookup =
  let rec keep acc = function
    | [] -> acc
    | (node, set) :: rest ->
      if List.for_all lookup (Conds.to_list set) then keep (node :: acc) rest
      else keep acc rest
  in
  List.sort_uniq Int.compare (keep [] t.entries)
