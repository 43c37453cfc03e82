open Ast

(* Precedences: 0 union, 1 seq, 2 postfix/atom. *)

let quote c =
  if String.contains c '\'' then Printf.sprintf "\"%s\"" c
  else Printf.sprintf "'%s'" c

let rec pp_prec prec ppf p =
  match p with
  | Self -> Fmt.string ppf "."
  | Tag s -> Fmt.string ppf s
  | Wildcard -> Fmt.string ppf "*"
  | Text -> Fmt.string ppf "text()"
  | Seq (a, b) ->
    let body ppf = Fmt.pf ppf "%a/%a" (pp_prec 1) a (pp_prec 1) b in
    if prec > 1 then Fmt.pf ppf "(%t)" body else body ppf
  | Union (a, b) ->
    let body ppf = Fmt.pf ppf "%a | %a" (pp_prec 0) a (pp_prec 0) b in
    if prec > 0 then Fmt.pf ppf "(%t)" body else body ppf
  | Star p -> Fmt.pf ppf "(%a)*" (pp_prec 0) p
  | Filter (p, q) -> Fmt.pf ppf "%a[%a]" (pp_prec 2) p pp_qual q

and pp_qual ppf q = pp_qual_prec 0 ppf q

and pp_qual_prec prec ppf q =
  match q with
  | True -> Fmt.string ppf "true()"
  | Exists p -> pp_prec 0 ppf p
  | Value_eq (p, c) -> Fmt.pf ppf "%a = %s" (pp_prec 1) p (quote c)
  | Not q -> Fmt.pf ppf "not(%a)" (pp_qual_prec 0) q
  | And (a, b) ->
    let body ppf =
      Fmt.pf ppf "%a and %a" (pp_qual_prec 1) a (pp_qual_prec 1) b
    in
    if prec > 1 then Fmt.pf ppf "(%t)" body else body ppf
  | Or (a, b) ->
    let body ppf =
      Fmt.pf ppf "%a or %a" (pp_qual_prec 0) a (pp_qual_prec 0) b
    in
    if prec > 0 then Fmt.pf ppf "(%t)" body else body ppf

let pp_path ppf p = pp_prec 0 ppf p
let path_to_string p = Fmt.str "%a" pp_path p
