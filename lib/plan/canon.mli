(** Canonical text for Regular XPath queries — the cache-key half of the
    plan cache.

    Two query strings that denote the same expression must map to the same
    key, or the cache serves them as distinct plans and the hit rate
    collapses under trivially reformatted traffic.  [to_key] renders a
    normal form that is insensitive to whitespace and redundant
    parenthesization and flattens the right-nested spellings of [/], [|],
    [and] and [or] — while {e preserving} qualifier order: [[a and b]] and
    [[b and a]] stay distinct keys, because predicate evaluation order is
    observable in cost (and the rewriter keeps it).

    The normal form round-trips: parsing a key and canonicalizing again
    yields the same key, so raw query text that already {e is} canonical
    can probe the cache without being parsed at all. *)

val normalize : Smoqe_rxpath.Ast.path -> Smoqe_rxpath.Ast.path
(** Rebuild a path through the AST smart constructors, re-establishing
    their normal forms ([Seq]/[And] right-nesting, [Union]/[Or] branch
    dedup, [Star]/[Not] involution) on trees built by hand. *)

val to_key : Smoqe_rxpath.Ast.path -> string
(** The canonical rendering of [normalize p]. *)
