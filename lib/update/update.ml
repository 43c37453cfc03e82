module Tree = Smoqe_xml.Tree
module Error = Smoqe_robust.Error
module Derive = Smoqe_security.Derive
module Exposure = Smoqe_security.Exposure
module Ast = Smoqe_rxpath.Ast
module Semantics = Smoqe_rxpath.Semantics

type target =
  | By_id of Tree.node
  | By_path of string

type op =
  | Insert of { parent : target; before : Tree.node option;
                source : Tree.source }
  | Delete of target
  | Replace of target * Tree.source

let target_of = function
  | Insert { parent; _ } -> parent
  | Delete tgt -> tgt
  | Replace (tgt, _) -> tgt

type resolved =
  | R_insert of { parent : Tree.node; before : Tree.node option;
                  source : Tree.source }
  | R_delete of Tree.node
  | R_replace of Tree.node * Tree.source

let resolve op node =
  match op with
  | Insert { before; source; _ } -> R_insert { parent = node; before; source }
  | Delete _ -> R_delete node
  | Replace (_, src) -> R_replace (node, src)

type footprint = {
  fp_lo : int;
  fp_old_hi : int;
  fp_new_hi : int;
  fp_parent : int;
  fp_tags : string list;
}

let err fmt = Format.kasprintf (fun msg -> Error (Error.Query_error msg)) fmt

let denied node fmt =
  Format.kasprintf (fun msg -> Error (Error.Update_denied { node; msg })) fmt

let check_id tree n what =
  if n < 0 || n >= Tree.n_nodes tree then
    err "update %s: no node %d (document has %d nodes)" what n
      (Tree.n_nodes tree)
  else Ok ()

let ( let* ) = Result.bind

let validate tree = function
  | R_delete n ->
    let* () = check_id tree n "target" in
    if n = Tree.root then err "update: cannot delete the document root"
    else Ok ()
  | R_replace (n, _) -> check_id tree n "target"
  | R_insert { parent; before; _ } ->
    let* () = check_id tree parent "parent" in
    if Tree.is_text tree parent then
      err "update: insert parent %d is a text node" parent
    else (
      match before with
      | None -> Ok ()
      | Some b ->
        let* () = check_id tree b "~before" in
        if b = Tree.root || Tree.parent tree b <> Some parent then
          err "update: ~before node %d is not a child of parent %d" b parent
        else Ok ())

(* The exposure of [lo, hi) alone ({!Exposure.region}): the σ-walk
   along the ancestors of [lo] and inside the range, never the rest of
   the document. *)
let region ~view tree ~lo ~hi =
  Error.guard (fun () -> Exposure.region view tree ~lo ~hi)

(* Member legality, part one (against the pre-update document): the
   update may only touch nodes the view exposes.  For a delete or
   replace, that is the entire removed subtree — removing data the
   member cannot see is exactly what the security view forbids; for an
   insert, the parent receiving the new child.  The offending node
   reported is the first hidden one in document order. *)
let precheck ~view tree r =
  match r with
  | R_delete n | R_replace (n, _) ->
    let stop = Tree.subtree_end tree n in
    let* exposed = region ~view tree ~lo:n ~hi:stop in
    let rec scan i =
      if i >= stop then Ok ()
      else if not (Exposure.mem exposed i) then
        if i = n then denied i "the update target is hidden by the view"
        else denied i "the target subtree contains a node hidden by the view"
      else scan (i + 1)
    in
    scan n
  | R_insert { parent; _ } ->
    let* exposed = region ~view tree ~lo:parent ~hi:(parent + 1) in
    if Exposure.mem exposed parent then Ok ()
    else denied parent "the insert parent is hidden by the view"

(* Apply the (validated) edit functionally and report its footprint:
   the replaced pre-update id range [fp_lo, fp_old_hi), the new range
   [fp_lo, fp_new_hi), the parent of the edit ([-1] when the root itself
   was replaced) and the element names involved on either side — the
   invalidation scope. *)
let apply tree r =
  let union_tags a b =
    a @ List.filter (fun t -> not (List.mem t a)) b
  in
  Error.guard (fun () ->
      match r with
      | R_delete n ->
        let old_hi = Tree.subtree_end tree n in
        let par = Option.value (Tree.parent tree n) ~default:(-1) in
        let tags = Tree.subtree_element_names tree n in
        let nt = Tree.delete_subtree tree n in
        ( nt,
          { fp_lo = n; fp_old_hi = old_hi; fp_new_hi = n; fp_parent = par;
            fp_tags = tags } )
      | R_replace (n, src) ->
        let old_hi = Tree.subtree_end tree n in
        let par = Option.value (Tree.parent tree n) ~default:(-1) in
        let tags =
          union_tags
            (Tree.subtree_element_names tree n)
            (Tree.source_element_names src)
        in
        let nt = Tree.replace_subtree tree n src in
        ( nt,
          { fp_lo = n; fp_old_hi = old_hi;
            fp_new_hi = n + Tree.subtree_size nt n; fp_parent = par;
            fp_tags = tags } )
      | R_insert { parent; before; source } ->
        let lo =
          match before with
          | Some b -> b
          | None -> Tree.subtree_end tree parent
        in
        let nt = Tree.insert_subtree tree ~parent ?before source in
        ( nt,
          { fp_lo = lo; fp_old_hi = lo;
            fp_new_hi = lo + Tree.subtree_size nt lo; fp_parent = parent;
            fp_tags = Tree.source_element_names source } ))

(* Member legality, part two (against the candidate new document):
   (a) every inserted node must itself be exposed — a member must not
   write into a region it cannot read back — and (b) the visibility of
   every node {e outside} the edited range must be unchanged (modulo the
   id shift).  (b) is the side-effect guard for conditional annotations:
   an edit inside an exposed region can still flip a [q]-qualifier
   elsewhere and reveal or hide unrelated data, which the view update
   discipline forbids.

   (b) is decided locally.  σ paths and qualifiers only look down, and
   outside the edit only the ancestors-or-self [y] of the edit parent
   see a changed subtree, so the σ-walk on the two documents can part
   only where an anchored qualifier ({!Exposure.anchored}) changes value
   on such a [y], and only below it.  When none does, nothing outside
   the edit moved; otherwise the highest such [y]'s subtree is compared,
   old region against new. *)

(* Whether a qualifier can see an edit of element names [tags]: a path
   made of named steps that all miss [tags] never reaches an edited node
   (text needs a [text()] or wildcard step), and the nodes it does reach
   keep their values — unless the edit put or took text directly under
   the parent, which the caller checks. *)
let sees_edit ~tags q =
  let rec path = function
    | Ast.Self -> false
    | Ast.Tag s -> List.mem s tags
    | Ast.Wildcard | Ast.Text -> true
    | Ast.Seq (a, b) | Ast.Union (a, b) -> path a || path b
    | Ast.Star p -> path p
    | Ast.Filter (p, q) -> path p || qual q
  and qual = function
    | Ast.True -> false
    | Ast.Exists p | Ast.Value_eq (p, _) -> path p
    | Ast.Not q -> qual q
    | Ast.And (a, b) | Ast.Or (a, b) -> qual a || qual b
  in
  qual q

(* The ancestors-or-self of [n], root first. *)
let chain tree n =
  let rec up n acc =
    match Tree.parent tree n with None -> n :: acc | Some p -> up p (n :: acc)
  in
  up n []

let postcheck ~view ~old_tree ~new_tree fp =
  let* inserted = region ~view new_tree ~lo:fp.fp_lo ~hi:fp.fp_new_hi in
  let rec check_inserted i =
    if i >= fp.fp_new_hi then Ok ()
    else if not (Exposure.mem inserted i) then
      denied i "the inserted subtree is not fully visible in the view"
    else check_inserted (i + 1)
  in
  let* () = check_inserted fp.fp_lo in
  if fp.fp_parent < 0 then Ok () (* the root was replaced: nothing outside *)
  else
    let* moved =
      Error.guard (fun () ->
          (* the edited range is one subtree, rooted at [fp_lo] *)
          let text_moved =
            (fp.fp_lo < fp.fp_old_hi && Tree.is_text old_tree fp.fp_lo)
            || (fp.fp_lo < fp.fp_new_hi && Tree.is_text new_tree fp.fp_lo)
          in
          let quals =
            List.filter
              (fun (q, _) -> text_moved || sees_edit ~tags:fp.fp_tags q)
              (Exposure.anchored view)
          in
          let changed y =
            let tag = Tree.name old_tree y in
            List.exists
              (fun (q, on) ->
                (match on with None -> true | Some l -> List.mem tag l)
                && Semantics.holds old_tree q y <> Semantics.holds new_tree q y)
              quals
          in
          List.find_opt changed (chain old_tree fp.fp_parent))
    in
    match moved with
    | None -> Ok ()
    | Some y ->
      let old_end = Tree.subtree_end old_tree y in
      let shift = fp.fp_new_hi - fp.fp_old_hi in
      let* before = region ~view old_tree ~lo:y ~hi:old_end in
      let* after = region ~view new_tree ~lo:y ~hi:(old_end + shift) in
      let rec stable i stop shift =
        if i >= stop then Ok ()
        else if Exposure.mem before i <> Exposure.mem after (i + shift) then
          denied i "the update would change the visibility of an unrelated node"
        else stable (i + 1) stop shift
      in
      let* () = stable y fp.fp_lo 0 in
      stable fp.fp_old_hi old_end shift
