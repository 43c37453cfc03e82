(** On-disk SMOQE stores.

    A store is a directory holding everything the engine needs to serve a
    document securely across sessions: the document, its DTD, the
    compressed TAX index (built once, "uploaded from disk when needed" —
    paper §3, Indexer), and one access-control policy per user group.

    Layout:
    {v
    <dir>/MANIFEST            format marker and file inventory
    <dir>/document.xml
    <dir>/document.dtd        (when a DTD was provided)
    <dir>/document.tax        compressed TAX index
    <dir>/policies/<group>.policy
    v}

    All operations return [Error] with a message rather than raising on
    IO or format problems. *)

type t

val create :
  dir:string ->
  ?dtd:Smoqe_xml.Dtd.t ->
  Smoqe_xml.Tree.t ->
  (t, string) result
(** Initialize a store in [dir] (created if missing, must be empty of
    SMOQE files): validate the document against [dtd] before writing
    anything, write the document, DTD and manifest, and return
    {!open_dir}[ dir] — so a new store is served exactly as a reopened
    one (StAX requests scan [document.xml]; the index is built and
    saved by the open). *)

val open_dir : string -> (t, string) result
(** Open an existing store: parses the manifest, loads document, DTD,
    index and all policies, and prepares an engine.  The document is
    loaded as {!Smoqe.Engine.of_file_robust} loads a file: a document
    that does not conform to the stored DTD is refused, and StAX requests
    scan [document.xml]. *)

val dir : t -> string

val engine : t -> Smoqe.Engine.t
(** The ready engine: document loaded, index loaded, one view registered
    per stored policy. *)

val add_policy :
  t -> group:string -> Smoqe_security.Policy.t -> (unit, string) result
(** Persist a policy and register its derived view with the engine.
    Requires the store to have a DTD.  An [Error] applies nothing: the
    live engine keeps the group's previous policy, or does not know a
    new group, just as a reopen of the store would. *)

val remove_policy : t -> group:string -> (unit, string) result
(** Delete a group's stored policy and revoke it on the live engine
    ({!Smoqe.Engine.remove_policy}): the served document, updates
    included, is untouched, and sessions of the removed group get
    [Policy_error] from their next request on. *)

val groups : t -> string list

val login :
  t -> Smoqe.Session.role -> (Smoqe.Session.t, string) result
(** Convenience: a session against the store's engine. *)
