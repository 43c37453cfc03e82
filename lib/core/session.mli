(** Access-control sessions: who may query what (paper §2, Query support).

    SMOQE's two query-evaluation modes: a user poses a query either (a)
    directly on the document, {e provided the user is granted access to
    it}, or (b) on the virtual view of their group.  Sessions enforce the
    distinction: administrators see the document, group members see only
    their view — a group member asking for direct access is refused, and
    their queries are silently rewritten through the view. *)

type role =
  | Admin  (** full access to the underlying document *)
  | Member of string  (** restricted to a group's security view *)

type t

val login : Engine.t -> role -> (t, string) result
(** Fails for a member of an unregistered group. *)

val role : t -> role

val schema : t -> Smoqe_xml.Dtd.t option
(** What the user is allowed to know about the data's shape: the document
    DTD for admins, the view DTD for members. *)

val run_robust :
  t ->
  ?mode:Engine.mode ->
  ?use_index:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  ?trace:Smoqe_hype.Trace.t ->
  string ->
  (Engine.outcome, Smoqe_robust.Error.t) result
(** Answer a query under the session's rights.  Total: any failure —
    malformed input, budget exhaustion, injected fault — is an [Error],
    never an exception (see {!Engine.query_robust}).  A member whose
    group's policy has been removed gets [Policy_error].

    Sessions share their engine's compiled-plan cache: when many group
    members pose the same (canonically equal) query, only the first pays
    for rewriting and compilation; later runs are served the cached MFA
    with [stats.plan_cache_hit = 1].  Rights are unaffected — the cache
    key is the policy key of the view, so a member can only ever hit
    plans rewritten through a view equal to their own. *)

val update_robust :
  t ->
  Smoqe_update.Update.op ->
  (Engine.update_report, Smoqe_robust.Error.t) result
(** Apply one update under the session's rights (see
    {!Engine.update_robust}): admins edit the document subject to
    structural and DTD checks only; members additionally pass their
    group's view-legality discipline — an edit touching any view-hidden
    node, or changing the visibility of an unrelated one, is
    [Error.Update_denied] and the document is untouched. *)

val run_many_robust :
  t ->
  ?mode:Engine.mode ->
  ?use_index:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  string list ->
  (Engine.outcome, Smoqe_robust.Error.t) result array * Smoqe_hype.Stats.t
(** Answer a whole batch in one shared-automaton document pass under the
    session's rights (see {!Engine.run_many_robust}): member automata are
    merged into one minimized union, duplicates collapse onto one member,
    and the merged plan is cached per policy key — a member can only ever
    hit batch plans rewritten through a view equal to their own. *)

val can_access_document : t -> bool
