module Tree = Smoqe_xml.Tree
module Error = Smoqe_robust.Error
module Derive = Smoqe_security.Derive
module Exposure = Smoqe_security.Exposure

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

let exposure ~view tree = Error.guard (fun () -> Exposure.compute view tree)

(* A caller-supplied exposure is used only for the view and the tree it
   was computed for: its ids mean nothing anywhere else. *)
let exposure_of ?exposure:given ~view tree =
  match given with
  | None -> exposure ~view tree
  | Some e when Exposure.is_for e ~view tree -> Ok e
  | Some _ ->
    Error
      (Error.Internal "update: exposure computed for another view or tree")

(* Member legality, part one (against the pre-update document): the
   update may only touch nodes the view exposes.  For a delete or
   replace, that is the entire removed subtree — removing data the
   member cannot see is exactly what the security view forbids; for an
   insert, the parent receiving the new child.  The offending node
   reported is the first hidden one in document order. *)
let precheck ?exposure ~view tree r =
  let* exposed = exposure_of ?exposure ~view tree in
  let is_exposed = Exposure.mem exposed in
  match r with
  | R_delete n | R_replace (n, _) ->
    let stop = Tree.subtree_end tree n in
    let rec scan i =
      if i >= stop then Ok ()
      else if not (is_exposed i) then
        if i = n then denied i "the update target is hidden by the view"
        else denied i "the target subtree contains a node hidden by the view"
      else scan (i + 1)
    in
    scan n
  | R_insert { parent; _ } ->
    if is_exposed parent then Ok ()
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
   discipline forbids. *)
let postcheck ?old_exposure ~view ~old_tree ~new_tree fp =
  let* exposed_old = exposure_of ?exposure:old_exposure ~view old_tree in
  let* exposed_new = exposure ~view new_tree in
  let shift = fp.fp_new_hi - fp.fp_old_hi in
  let vis_old = Exposure.mem exposed_old in
  let vis_new = Exposure.mem exposed_new in
  let rec inserted i =
    if i >= fp.fp_new_hi then Ok ()
    else if not (vis_new i) then
      denied i "the inserted subtree is not fully visible in the view"
    else inserted (i + 1)
  in
  let rec stable_prefix i =
    if i >= fp.fp_lo then Ok ()
    else if vis_old i <> vis_new i then
      denied i "the update would change the visibility of an unrelated node"
    else stable_prefix (i + 1)
  in
  let rec stable_suffix i =
    if i >= Tree.n_nodes old_tree then Ok ()
    else if vis_old i <> vis_new (i + shift) then
      denied i "the update would change the visibility of an unrelated node"
    else stable_suffix (i + 1)
  in
  let* () = inserted fp.fp_lo in
  let* () = stable_prefix 0 in
  stable_suffix fp.fp_old_hi
