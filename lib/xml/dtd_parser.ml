exception Error of int * string

type state = { src : string; mutable pos : int }

let err st msg = raise (Error (st.pos, msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* Index-wise prefix test: no [String.sub] allocation per probe. *)
let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get st.src (st.pos + !i) = String.unsafe_get s !i do
    incr i
  done;
  !i = n

let rec skip_ws_and_comments st =
  (match peek st with
  | Some c when is_ws c ->
    advance st;
    skip_ws_and_comments st
  | Some '<' when looking_at st "<!--" ->
    st.pos <- st.pos + 4;
    let rec close () =
      if st.pos + 2 >= String.length st.src then err st "unterminated comment"
      else if looking_at st "-->" then st.pos <- st.pos + 3
      else begin
        advance st;
        close ()
      end
    in
    close ();
    skip_ws_and_comments st
  | Some _ | None -> ())

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> err st (Printf.sprintf "expected %C, found %C" c got)
  | None -> err st (Printf.sprintf "expected %C, found end of input" c)

let expect_str st s = String.iter (expect st) s

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let read_name st =
  let start = st.pos in
  (match peek st with
  | Some c when is_name_start c -> advance st
  | Some c -> err st (Printf.sprintf "invalid name start %C" c)
  | None -> err st "expected a name, found end of input");
  let rec loop () =
    match peek st with
    | Some c when is_name_char c -> advance st; loop ()
    | Some _ | None -> ()
  in
  loop ();
  String.sub st.src start (st.pos - start)

let read_quantifier st base =
  match peek st with
  | Some '*' -> advance st; Dtd.Star base
  | Some '+' -> advance st; Dtd.Plus base
  | Some '?' -> advance st; Dtd.Opt base
  | Some _ | None -> base

(* cp ::= (name | '(' choice-or-seq ')') quant?  *)
let rec read_cp st =
  skip_ws_and_comments st;
  let base =
    match peek st with
    | Some '(' ->
      advance st;
      let inner = read_group st in
      skip_ws_and_comments st;
      expect st ')';
      inner
    | Some c when is_name_start c -> Dtd.Name (read_name st)
    | Some c -> err st (Printf.sprintf "unexpected %C in content model" c)
    | None -> err st "unexpected end of input in content model"
  in
  read_quantifier st base

and read_group st =
  let first = read_cp st in
  skip_ws_and_comments st;
  match peek st with
  | Some ',' ->
    let rec seq acc =
      skip_ws_and_comments st;
      match peek st with
      | Some ',' ->
        advance st;
        seq (Dtd.Seq (acc, read_cp st))
      | Some _ | None -> acc
    in
    seq first
  | Some '|' ->
    let rec alt acc =
      skip_ws_and_comments st;
      match peek st with
      | Some '|' ->
        advance st;
        alt (Dtd.Alt (acc, read_cp st))
      | Some _ | None -> acc
    in
    alt first
  | Some _ | None -> first

let read_mixed st =
  (* "#PCDATA" already consumed; parse ('|' name)* ')' '*'? *)
  let rec names acc =
    skip_ws_and_comments st;
    match peek st with
    | Some '|' ->
      advance st;
      skip_ws_and_comments st;
      names (read_name st :: acc)
    | Some ')' ->
      advance st;
      (match peek st with
      | Some '*' -> advance st
      | Some _ | None ->
        if acc <> [] then err st "mixed content with names requires a trailing *");
      List.rev acc
    | Some c -> err st (Printf.sprintf "unexpected %C in mixed content" c)
    | None -> err st "unexpected end of input in mixed content"
  in
  names []

let read_content st =
  skip_ws_and_comments st;
  if looking_at st "EMPTY" then begin
    st.pos <- st.pos + 5;
    Dtd.Empty
  end
  else if looking_at st "ANY" then begin
    st.pos <- st.pos + 3;
    Dtd.Any
  end
  else begin
    expect st '(';
    skip_ws_and_comments st;
    if looking_at st "#PCDATA" then begin
      st.pos <- st.pos + 7;
      Dtd.Mixed (read_mixed st)
    end
    else begin
      let r = read_group st in
      skip_ws_and_comments st;
      expect st ')';
      match read_quantifier st (Dtd.Name "!") with
      | Dtd.Star _ -> Dtd.Children (Dtd.Star r)
      | Dtd.Plus _ -> Dtd.Children (Dtd.Plus r)
      | Dtd.Opt _ -> Dtd.Children (Dtd.Opt r)
      | _ -> Dtd.Children r
    end
  end

(* Skip a declaration we do not model (<!ATTLIST ...>, <!ENTITY ...>). *)
let skip_declaration st =
  let rec loop () =
    match peek st with
    | Some '>' -> advance st
    | Some _ -> advance st; loop ()
    | None -> err st "unterminated declaration"
  in
  loop ()

let read_element_decl st =
  expect_str st "<!ELEMENT";
  skip_ws_and_comments st;
  let name = read_name st in
  let content = read_content st in
  skip_ws_and_comments st;
  expect st '>';
  (name, content)

let read_declarations st stop_at_bracket =
  let rec loop acc =
    skip_ws_and_comments st;
    match peek st with
    | None -> List.rev acc
    | Some ']' when stop_at_bracket -> List.rev acc
    | Some '<' ->
      if looking_at st "<!ELEMENT" then loop (read_element_decl st :: acc)
      else if looking_at st "<!ATTLIST" || looking_at st "<!ENTITY"
              || looking_at st "<!NOTATION" || looking_at st "<?" then begin
        skip_declaration st;
        loop acc
      end
      else err st "expected a declaration"
    | Some c -> err st (Printf.sprintf "unexpected %C" c)
  in
  loop []

let of_string ?root input =
  let st = { src = input; pos = 0 } in
  skip_ws_and_comments st;
  if looking_at st "<!DOCTYPE" then begin
    st.pos <- st.pos + String.length "<!DOCTYPE";
    skip_ws_and_comments st;
    let doc_root = read_name st in
    skip_ws_and_comments st;
    expect st '[';
    let prods = read_declarations st true in
    expect st ']';
    skip_ws_and_comments st;
    expect st '>';
    let root = Option.value root ~default:doc_root in
    Dtd.create ~root prods
  end
  else begin
    let prods = read_declarations st false in
    match prods, root with
    | [], _ -> err st "no element declarations"
    | (first, _) :: _, None -> Dtd.create ~root:first prods
    | _, Some root -> Dtd.create ~root prods
  end
