type cond = int * int

(* Sorted, duplicate-free list: sets stay tiny (one entry per qualifier on
   the selecting path), so lists beat balanced trees here. *)
type set = cond list

let empty = []
let is_empty s = s = []

let rec add c s =
  match s with
  | [] -> [ c ]
  | head :: tail ->
    let cmp = compare c head in
    if cmp = 0 then s
    else if cmp < 0 then c :: s
    else head :: add c tail

let to_list s = s

let compare_set (a : set) (b : set) = compare a b
