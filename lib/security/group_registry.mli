(** Group registry: group -> canonical policy key -> shared derivation
    artifacts.  The engine registers every user group here.

    Groups whose policies agree after {!Policy_key} normalization share
    one {!Derive.view} (and, downstream, one rewrite and one compiled
    plan).  Artifacts are refcounted per key; policy churn moves a group
    between keys, and the last group to leave a key frees its derived
    view.  A key is a content hash of the policy, so whatever a caller
    cached under it stays valid if the policy returns.  All operations
    are thread-safe. *)

type t

type registration = {
  reg_key : string;  (** canonical policy key the group now serves under *)
  reg_view : Derive.view;  (** shared derived view for that key *)
  reg_shared : bool;
      (** [true] when the view was reused from an earlier derivation
          (a policy-key hit); [false] when this registration derived it *)
}

val create : unit -> t

val register : t -> group:string -> Policy.t -> registration
(** Register (or re-register) a group under a policy.  Derives the view
    only if the canonical key is new; idempotent when the policy content
    is unchanged.  [Derive.Unsupported] propagates with the registry
    unchanged. *)

val remove : t -> group:string -> unit
(** Forget a group, freeing its key's view if it was the last holder. *)

val lookup : t -> group:string -> (string * Derive.view) option
(** The group's (policy key, shared view), if registered. *)

val counters : t -> (string * int) list
(** [groups]/[policy_keys] (keys holding a view)/[policy_key_hits]/
    [derivations]. *)
