(** Group registry: group -> canonical policy key -> shared derivation
    artifacts.  The engine registers every user group here.

    Groups whose policies agree after {!Policy_key} normalization share
    one {!Derive.view} (and, downstream, one rewrite and one compiled
    plan).  Artifacts are refcounted per key; policy churn moves a group
    between keys, and a key whose last group leaves is retired — the
    caller learns which key died so plans cached under it can be
    invalidated.  All operations are thread-safe. *)

type t

type registration = {
  reg_key : string;  (** canonical policy key the group now serves under *)
  reg_view : Derive.view;  (** shared derived view for that key *)
  reg_shared : bool;
      (** [true] when the view was reused from an earlier derivation
          (a policy-key hit); [false] when this registration derived it *)
  reg_retired : string option;
      (** a previously-held key whose artifacts were dropped because this
          group was its last holder — invalidate cached plans under it *)
}

val create : unit -> t

val register : t -> group:string -> Policy.t -> registration
(** Register (or re-register) a group under a policy.  Derives the view
    only if the canonical key is new; idempotent when the policy content
    is unchanged.  [Derive.Unsupported] propagates with the registry
    unchanged. *)

val remove : t -> group:string -> string option
(** Forget a group.  Returns the retired policy key if the group was
    the last holder of its artifacts. *)

val lookup : t -> group:string -> (string * Derive.view) option
(** The group's (policy key, shared view), if registered. *)

val counters : t -> (string * int) list
