(* Group -> canonical policy key -> shared derivation artifacts.

   Production serving has thousands of groups but far fewer distinct
   policies: the registry keys every group by {!Policy_key.of_policy}
   and derives the security view once per key, refcounted across the
   groups that share it.  Policy churn (a group re-registering under a
   different policy) moves the group to the new key; when a key's last
   group leaves, its artifacts are dropped.  Nothing downstream needs to
   hear of it: the key is a content hash of the policy, so anything
   cached under it stays correct should the policy come back.

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
  mutable key_hits : int;
  mutable derivations : int;
}

type registration = {
  reg_key : string;
  reg_view : Derive.view;
  reg_shared : bool;
}

let create () =
  {
    lock = Mutex.create ();
    groups = Hashtbl.create 64;
    artifacts = Hashtbl.create 16;
    key_hits = 0;
    derivations = 0;
  }

(* Drop one reference to [key]; the last group to leave frees the
   derived view. *)
let release t key =
  match Hashtbl.find_opt t.artifacts key with
  | None -> ()
  | Some sh ->
    sh.sh_refs <- sh.sh_refs - 1;
    if sh.sh_refs <= 0 then Hashtbl.remove t.artifacts key

let register t ~group policy =
  let key = Policy_key.of_policy policy in
  Mutex.protect t.lock (fun () ->
      let previous = Hashtbl.find_opt t.groups group in
      match previous with
      | Some old_key when String.equal old_key key ->
        (* idempotent re-registration under the same policy content *)
        let sh = Hashtbl.find t.artifacts key in
        t.key_hits <- t.key_hits + 1;
        { reg_key = key; reg_view = sh.sh_view; reg_shared = true }
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
            (false, view)
        in
        Hashtbl.replace t.groups group key;
        Option.iter (release t) previous;
        { reg_key = key; reg_view = view; reg_shared = shared })

let remove t ~group =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.groups group with
      | None -> ()
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
      ])
