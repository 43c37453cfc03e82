(** The secure update path: typed subtree edits, policy-checked against
    the active security view (Mahfoud & Imine's legality discipline: an
    update is legal iff it only touches nodes the view exposes, and has
    no visibility side effects on the rest of the document).

    This module is pure — it validates, checks and applies edits on
    {!Smoqe_xml.Tree.t} values and never holds engine state.  The engine
    resolves [By_path] targets (a Regular XPath that must select exactly
    one node, evaluated through the member's view), drives
    [validate] → [precheck] → [apply] → [postcheck], DTD-checks the
    candidate locally, at the edit, and atomically publishes it together
    with the incrementally maintained TAX index and the subtree-scoped
    plan-cache invalidation ({!Smoqe_plan.Plan_cache.invalidate_tags}).  A rejected
    update returns [Error.Update_denied] with the offending node and
    leaves no partial state anywhere. *)

module Tree = Smoqe_xml.Tree
module Error = Smoqe_robust.Error
module Derive = Smoqe_security.Derive

type target =
  | By_id of Tree.node  (** a pre-order node id of the document *)
  | By_path of string
      (** a Regular XPath; must select exactly one node.  Members' paths
          are evaluated through their view, so a path can only ever name
          an exposed node. *)

type op =
  | Insert of { parent : target; before : Tree.node option;
                source : Tree.source }
      (** insert [source] as a child of [parent], before the child with
          id [before], or as the last child when [None] *)
  | Delete of target  (** remove the whole subtree *)
  | Replace of target * Tree.source  (** replace the whole subtree *)

val target_of : op -> target
(** The target the engine must resolve to a node id. *)

(** {1 The staged write pipeline} *)

type resolved =
  | R_insert of { parent : Tree.node; before : Tree.node option;
                  source : Tree.source }
  | R_delete of Tree.node
  | R_replace of Tree.node * Tree.source

val resolve : op -> Tree.node -> resolved
(** Plug the resolved target id into an op. *)

type footprint = {
  fp_lo : int;  (** first edited id (old = new coordinates) *)
  fp_old_hi : int;  (** end of the replaced range, pre-update ids *)
  fp_new_hi : int;  (** end of the new range, post-update ids *)
  fp_parent : int;  (** parent of the edit; [-1]: the root was replaced *)
  fp_tags : string list;
      (** element names removed or inserted — the invalidation scope *)
}
(** What an applied edit touched — everything incremental maintenance
    (TAX splice, scoped plan invalidation) needs to know. *)

val validate : Tree.t -> resolved -> (unit, Error.t) result
(** Structural validation: ids in range, the root not deleted, inserts
    under elements only, [before] a child of [parent].  Failures are
    [Query_error] — the request is malformed regardless of policy. *)

val precheck :
  view:Derive.view -> Tree.t -> resolved -> (unit, Error.t) result
(** Member legality against the pre-update document: the entire removed
    subtree (delete/replace) or the receiving parent (insert) must be
    exposed by the view.  Exposure is read from one σ-walk restricted to
    that subtree or parent and its ancestors
    ({!Smoqe_security.Exposure.region}), so the cost is local to the
    edit.  Failures are [Update_denied] carrying the first hidden node in
    document order. *)

val apply : Tree.t -> resolved -> (Tree.t * footprint, Error.t) result
(** Apply a validated edit functionally (the input tree is untouched)
    and report its footprint. *)

val postcheck :
  view:Derive.view ->
  old_tree:Tree.t ->
  new_tree:Tree.t ->
  footprint ->
  (unit, Error.t) result
(** Member legality against the candidate document: every inserted node
    must be exposed (no writing into regions the member cannot read
    back), and no node outside the edited range may change visibility —
    the side-effect guard for conditional ([q]) annotations.  Decided
    locally and exactly: the inserted range by a restricted σ-walk of
    the new tree; the rest by re-evaluating, on the ancestors-or-self of
    the edit parent, the view's anchored qualifiers
    ({!Smoqe_security.Exposure.anchored}) that can see the edit, and,
    when one changed value, by comparing the highest such ancestor's
    subtree, old against new.  Qualifiers only look downward, so nothing
    else can move.  Failures are [Update_denied] carrying the first
    offending node in document order (old ids outside the new range);
    the engine then discards the candidate. *)
