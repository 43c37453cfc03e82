(** Printing Regular XPath back to concrete syntax.

    The output re-parses to the same AST (a qcheck property), with minimal
    parenthesization: union binds weakest, then composition, then the
    postfix star and qualifiers. *)

val pp_path : Format.formatter -> Ast.path -> unit
val pp_qual : Format.formatter -> Ast.qual -> unit

val path_to_string : Ast.path -> string
