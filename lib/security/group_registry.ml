(* Group -> canonical policy key -> shared derivation artifacts.

   Production serving has thousands of groups but far fewer distinct
   policies: the registry keys every group by {!Policy_key.of_policy}
   and derives the security view once per key, refcounted across the
   groups that share it.  Policy churn (a group re-registering under a
   different policy) moves the group to the new key; when a key's last
   group leaves, its artifacts are dropped, the registry generation
   bumps, and the retired key is reported so callers can invalidate any
   compiled plans cached under it.

   Derivation runs under the registry lock: it happens once per distinct
   policy, so serializing it is cheaper than the double-derivation races
   a lock-free scheme would admit.  [Derive.Unsupported] propagates to
   the caller with the registry unchanged. *)

type shared = {
  sh_view : Derive.view;
  mutable sh_refs : int;
}

type t = {
  lock : Mutex.t;
  groups : (string, string) Hashtbl.t; (* group -> policy key *)
  artifacts : (string, shared) Hashtbl.t; (* policy key -> shared *)
  mutable generation : int;
  mutable key_hits : int;
  mutable derivations : int;
}

type registration = {
  reg_key : string;
  reg_view : Derive.view;
  reg_shared : bool;
  reg_retired : string option;
}

let create () =
  {
    lock = Mutex.create ();
    groups = Hashtbl.create 64;
    artifacts = Hashtbl.create 16;
    generation = 0;
    key_hits = 0;
    derivations = 0;
  }

(* Drop one reference to [key]; returns [Some key] if that was the last
   group and the artifacts were retired. *)
let release t key =
  match Hashtbl.find_opt t.artifacts key with
  | None -> None
  | Some sh ->
    sh.sh_refs <- sh.sh_refs - 1;
    if sh.sh_refs <= 0 then begin
      Hashtbl.remove t.artifacts key;
      t.generation <- t.generation + 1;
      Some key
    end
    else None

let register t ~group policy =
  let key = Policy_key.of_policy policy in
  Mutex.protect t.lock (fun () ->
      let previous = Hashtbl.find_opt t.groups group in
      match previous with
      | Some old_key when String.equal old_key key ->
        (* idempotent re-registration under the same policy content *)
        let sh = Hashtbl.find t.artifacts key in
        t.key_hits <- t.key_hits + 1;
        { reg_key = key; reg_view = sh.sh_view; reg_shared = true;
          reg_retired = None }
      | _ ->
        let shared, view =
          match Hashtbl.find_opt t.artifacts key with
          | Some sh ->
            sh.sh_refs <- sh.sh_refs + 1;
            t.key_hits <- t.key_hits + 1;
            (true, sh.sh_view)
          | None ->
            let view = Derive.derive policy in
            Hashtbl.replace t.artifacts key { sh_view = view; sh_refs = 1 };
            t.derivations <- t.derivations + 1;
            t.generation <- t.generation + 1;
            (false, view)
        in
        Hashtbl.replace t.groups group key;
        let retired =
          match previous with Some old -> release t old | None -> None
        in
        { reg_key = key; reg_view = view; reg_shared = shared;
          reg_retired = retired })

let remove t ~group =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> None
      | Some key ->
        Hashtbl.remove t.groups group;
        release t key)

let lookup t ~group =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> None
      | Some key ->
        (match Hashtbl.find_opt t.artifacts key with
        | None -> None
        | Some sh -> Some (key, sh.sh_view)))

let counters t =
  Mutex.protect t.lock (fun () ->
      [
        ("groups", Hashtbl.length t.groups);
        ("policy_keys", Hashtbl.length t.artifacts);
        ("policy_key_hits", t.key_hits);
        ("derivations", t.derivations);
        ("generation", t.generation);
      ])
