(** Canonical policy keys — a stable hash of a policy's normalized
    annotation structure.

    Policies that agree after normalization (annotation order is
    irrelevant; qualifiers compare by their deterministic pretty-printed
    form) map to the same key, so the engine can share derived views,
    rewrites and compiled plans across groups whose policies coincide.
    Keys include the DTD root: equal annotation lists over different
    document types never collide. *)

val canonical_text : Policy.t -> string
(** The normalized byte rendering that is hashed — exposed for tests and
    debugging.  Equal policies have equal canonical text. *)

val of_policy : Policy.t -> string
(** Stable hex key (content hash of {!canonical_text}).  Pure function of
    the policy's semantic content. *)
