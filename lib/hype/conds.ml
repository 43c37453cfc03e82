type cond = int

(* Sorted, duplicate-free list: sets stay tiny (one entry per qualifier on
   the selecting path), so lists beat balanced trees here. *)
type set = cond list

let empty = []
let is_empty = function [] -> true | _ :: _ -> false

let rec add (c : cond) s =
  match s with
  | [] -> [ c ]
  | head :: tail ->
    if c = head then s else if c < head then c :: s else head :: add c tail

let to_list s = s

let compare_set (a : set) (b : set) = List.compare Int.compare a b
