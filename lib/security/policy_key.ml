(* Canonical policy keys: the Plan_cache.Canon trick lifted from queries
   to whole policies.  Two groups whose annotation structures agree
   after normalization hash to the same key and can share one derived
   view spec, one rewrite and one compiled plan.

   Normalization: annotations are sorted by (parent, child) edge — the
   declaration order a policy file happens to use is semantically inert —
   and each annotation is rendered into an unambiguous byte string
   ([\x00]-separated fields, [\x01]-separated records, neither of which
   can appear in element names or qualifier text).  [Allow]/[Deny]
   render as fixed tags; [Cond q] renders the qualifier through the
   deterministic {!Smoqe_rxpath.Pretty} printer, so alpha-equivalent
   spellings that pretty-print identically collapse.  The DTD root is
   included: the same annotation list over different document types must
   not collide. *)

let render_annotation buf ((parent, child), ann) =
  Buffer.add_string buf parent;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf child;
  Buffer.add_char buf '\x00';
  (match ann with
  | Policy.Allow -> Buffer.add_string buf "Y"
  | Policy.Deny -> Buffer.add_string buf "N"
  | Policy.Cond q ->
    Buffer.add_string buf "C:";
    Buffer.add_string buf (Fmt.str "%a" Smoqe_rxpath.Pretty.pp_qual q));
  Buffer.add_char buf '\x01'

let canonical_text policy =
  let anns =
    List.sort
      (fun (e1, _) (e2, _) -> compare (e1 : string * string) e2)
      (Policy.annotations policy)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Smoqe_xml.Dtd.root (Policy.dtd policy));
  Buffer.add_char buf '\x01';
  List.iter (render_annotation buf) anns;
  Buffer.contents buf

let of_policy policy = Digest.to_hex (Digest.string (canonical_text policy))
