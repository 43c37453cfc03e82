module Error = Smoqe_robust.Error

type role =
  | Admin
  | Member of string

type t = {
  engine : Engine.t;
  role : role;
}

let login engine role =
  match role with
  | Admin -> Ok { engine; role }
  | Member group ->
    (match Engine.view engine ~group with
    | Some _ -> Ok { engine; role }
    | None -> Error (Printf.sprintf "no view registered for group %s" group))

let role t = t.role

let schema t =
  match t.role with
  | Admin -> Engine.dtd t.engine
  | Member group -> Engine.view_dtd t.engine ~group

(* The group a session's queries run through: none for admins (the
   document itself), the member's own for members — resolved from the
   role, so a member can never sidestep their view.  The engine resolves
   the group on every request: once the group's policy is removed, its
   members' sessions fail with [Policy_error]. *)
let group t = match t.role with Admin -> None | Member g -> Some g

let run_robust t ?mode ?use_index ?budget ?trace text =
  (* The engine boundary is already guarded; the extra guard here keeps the
     session total even against failures in its own plumbing. *)
  Result.join
    (Error.guard (fun () ->
         Engine.query_robust t.engine ?group:(group t) ?mode ?use_index
           ?budget ?trace text))

(* The write path under the session's rights: admins update the document
   directly (structural and DTD checks only), members go through their
   group's view-legality checks. *)
let update_robust t op =
  Result.join
    (Error.guard (fun () -> Engine.update_robust t.engine ?group:(group t) op))

let run_many_robust t ?mode ?use_index ?budget texts =
  match
    Error.guard (fun () ->
        Engine.run_many_robust t.engine ?group:(group t) ?mode ?use_index
          ?budget texts)
  with
  | Ok r -> r
  | Error e ->
    (Array.make (List.length texts) (Error e), Smoqe_hype.Stats.zero ())

let can_access_document t =
  match t.role with Admin -> true | Member _ -> false
