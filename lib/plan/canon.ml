module Ast = Smoqe_rxpath.Ast
module Pretty = Smoqe_rxpath.Pretty

(* The parser already builds through the smart constructors, so parsed
   trees are in normal form; this pass makes [to_key] total over ASTs
   assembled directly (benches, tests, generators). *)
let rec normalize = function
  | (Ast.Self | Ast.Tag _ | Ast.Wildcard | Ast.Text) as p -> p
  | Ast.Seq (a, b) -> Ast.seq (normalize a) (normalize b)
  | Ast.Union (a, b) -> Ast.union (normalize a) (normalize b)
  | Ast.Star p -> Ast.star (normalize p)
  | Ast.Filter (p, q) -> Ast.filter (normalize p) (normalize_qual q)

and normalize_qual = function
  | Ast.True -> Ast.True
  | Ast.Exists p -> Ast.Exists (normalize p)
  | Ast.Value_eq (p, v) -> Ast.Value_eq (normalize p, v)
  | Ast.Not q -> Ast.q_not (normalize_qual q)
  | Ast.And (a, b) -> Ast.q_and (normalize_qual a) (normalize_qual b)
  | Ast.Or (a, b) -> Ast.q_or (normalize_qual a) (normalize_qual b)

let to_key p = Pretty.path_to_string (normalize p)
