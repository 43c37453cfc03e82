module Budget = Smoqe_robust.Budget
module Failpoint = Smoqe_robust.Failpoint

type event =
  | Start_element of string * (string * string) list
  | End_element of string
  | Text of string

type signal = Cursor_start | Cursor_end | Cursor_text | Cursor_eof

exception Error of int * int * string

(* ------------------------------------------------------------------ *)
(* Reader: one growable byte region shared by the whole parse.

   All document bytes live in [buf]; [base] is the absolute stream offset
   of [buf.[0]], so an absolute offset [o] maps to [buf.[o - base]].
   Spans recorded by the lexer are absolute offsets — they survive the
   compaction below unchanged.

   Two retention policies:
   - window mode ([retain = false], the streaming default): on refill,
     bytes before [min pin pos] are discarded by sliding the live window
     to the front of [buf], so arbitrarily large documents parse in
     memory proportional to the largest single event.  [pin] is reset at
     the start of every event scan, which is what bounds the window.
   - retain mode ([retain = true], used by the DOM builder): nothing is
     ever discarded and [base] stays 0, so recorded spans double as
     offsets into the final document arena with no copy at all.  *)
type reader = {
  mutable buf : bytes;
  mutable pos : int; (* next unread byte, buffer-relative *)
  mutable len : int; (* valid bytes in [buf] *)
  mutable base : int; (* absolute stream offset of [buf.[0]] *)
  mutable eof : bool;
  read_more : bytes -> int -> int -> int; (* 0 = end of input *)
  retain : bool;
  mutable pin : int; (* absolute offset that must survive compaction *)
  (* Positions are settled lazily: [line]/[col] describe the absolute
     offset [settled], not [pos].  The scan loops only move [pos];
     {!settle} counts the bytes in between when a position is needed —
     an error, the [line]/[column] accessors, the BOM reset — and before
     window mode discards bytes that have not been counted yet. *)
  mutable settled : int;
  mutable line : int;
  mutable col : int;
}

let chunk_size = 65536

let reader_of_string ~retain s =
  (* [Bytes.unsafe_of_string] is sound here: a string reader is created
     at eof, so [refill] never runs and the bytes are never written. *)
  {
    buf = Bytes.unsafe_of_string s;
    pos = 0;
    len = String.length s;
    base = 0;
    eof = true;
    read_more = (fun _ _ _ -> 0);
    retain;
    pin = 0;
    settled = 0;
    line = 1;
    col = 1;
  }

let reader_of_channel ~retain ~chunk ic =
  {
    buf = Bytes.create (max 1 chunk);
    pos = 0;
    len = 0;
    base = 0;
    eof = false;
    read_more = (fun b off n -> input ic b off n);
    retain;
    pin = 0;
    settled = 0;
    line = 1;
    col = 1;
  }

(* Bring [line]/[col] up to [pos]: every byte is one column, a newline
   starts the next line. *)
let settle rd =
  let b = rd.buf in
  let line = ref rd.line and col = ref rd.col in
  for i = rd.settled - rd.base to rd.pos - 1 do
    if Bytes.unsafe_get b i = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  rd.line <- !line;
  rd.col <- !col;
  rd.settled <- rd.base + rd.pos

let err rd msg =
  settle rd;
  raise (Error (rd.line, rd.col, msg))

let refill rd =
  if rd.eof then false
  else begin
    if not rd.retain then begin
      let keep = min rd.pin (rd.base + rd.pos) - rd.base in
      if keep > 0 then begin
        settle rd;
        Bytes.blit rd.buf keep rd.buf 0 (rd.len - keep);
        rd.len <- rd.len - keep;
        rd.pos <- rd.pos - keep;
        rd.base <- rd.base + keep
      end
    end;
    let n =
      if rd.len < Bytes.length rd.buf then
        rd.read_more rd.buf rd.len (Bytes.length rd.buf - rd.len)
      else begin
        (* Full: grow only when the input has more.  Probing one byte
           first means a buffer sized to the whole input ends exactly
           full, and {!retained} shares it without a copy. *)
        let probe = Bytes.create 1 in
        let n = rd.read_more probe 0 1 in
        if n > 0 then begin
          let nb = Bytes.create (max 64 (2 * Bytes.length rd.buf)) in
          Bytes.blit rd.buf 0 nb 0 rd.len;
          Bytes.unsafe_set nb rd.len (Bytes.unsafe_get probe 0);
          rd.buf <- nb
        end;
        n
      end
    in
    if n = 0 then begin
      rd.eof <- true;
      false
    end
    else begin
      rd.len <- rd.len + n;
      true
    end
  end

(* [has]/[cur]/[advance] are the non-allocating lookahead primitives.
   [cur] and [advance] require a preceding successful [has].  The hot
   tokens (names, text, attribute values, whitespace) do not go through
   them: they scan [buf] up to [len] in an index loop and refill only at
   the end of the buffer. *)
let has rd = rd.pos < rd.len || refill rd
let cur rd = Bytes.unsafe_get rd.buf rd.pos
let advance rd = rd.pos <- rd.pos + 1

let read rd =
  if not (has rd) then err rd "unexpected end of input";
  let c = cur rd in
  advance rd;
  c

let expect rd c =
  let got = read rd in
  if got <> c then err rd (Printf.sprintf "expected %C, found %C" c got)

let expect_str rd s = String.iter (fun c -> expect rd c) s

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws rd =
  let continue = ref true in
  while !continue do
    let b = rd.buf and len = rd.len in
    let i = ref rd.pos in
    while !i < len && is_ws (Bytes.unsafe_get b !i) do
      incr i
    done;
    rd.pos <- !i;
    if !i < len || not (refill rd) then continue := false
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

(* Name bytes as a 256-entry table: one load per byte in the scan loop. *)
let name_chars =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'
      then '\001'
      else '\000')

let is_name_char c = String.unsafe_get name_chars (Char.code c) <> '\000'

(* ------------------------------------------------------------------ *)
(* Name interning: an open-addressing table of the distinct names seen,
   keyed by an FNV-1a hash of the byte range — a repeated name costs a
   hash and a byte compare, zero allocations.  Each name is numbered in
   order of first sight: [slots] maps a table slot to that id ([-1] when
   empty) and [names] an id back to the name.  Names are few (tags and
   attribute keys), so the table stays tiny. *)
module Pool = struct
  type t = {
    mutable slots : int array;
    mutable names : string array;
    mutable count : int;
  }

  let create () =
    { slots = Array.make 64 (-1); names = Array.make 32 ""; count = 0 }

  let fnv_basis = 0x811c9dc5
  let fnv h c = (h lxor Char.code c) * 0x01000193 land max_int

  let hash_range b off len =
    let h = ref fnv_basis in
    for i = off to off + len - 1 do
      h := fnv !h (Bytes.unsafe_get b i)
    done;
    !h

  let hash_str s = String.fold_left fnv fnv_basis s

  let matches k b off len =
    String.length k = len
    &&
    let i = ref 0 in
    while
      !i < len && String.unsafe_get k !i = Bytes.unsafe_get b (off + !i)
    do
      incr i
    done;
    !i = len

  let grow p =
    let nslots = Array.make (2 * Array.length p.slots) (-1) in
    let mask = Array.length nslots - 1 in
    for id = 0 to p.count - 1 do
      let i = ref (hash_str p.names.(id) land mask) in
      while nslots.(!i) >= 0 do
        i := (!i + 1) land mask
      done;
      nslots.(!i) <- id
    done;
    p.slots <- nslots

  (* The id of the name [b[off, off+len)], whose FNV-1a hash is [h]. *)
  let intern_hashed p b off len h =
    let slots = p.slots in
    let mask = Array.length slots - 1 in
    let i = ref (h land mask) in
    while
      let id = Array.unsafe_get slots !i in
      id >= 0 && not (matches (Array.unsafe_get p.names id) b off len)
    do
      i := (!i + 1) land mask
    done;
    let id = slots.(!i) in
    if id >= 0 then id
    else begin
      let id = p.count in
      if id = Array.length p.names then begin
        let names = Array.make (2 * id) "" in
        Array.blit p.names 0 names 0 id;
        p.names <- names
      end;
      p.names.(id) <- Bytes.sub_string b off len;
      slots.(!i) <- id;
      p.count <- id + 1;
      if 2 * p.count >= Array.length slots then grow p;
      id
    end

  let name p id = Array.unsafe_get p.names id
end

(* ------------------------------------------------------------------ *)
(* Scratch: decoded bytes (entity and character-reference expansions,
   and the raw segments between them when a token contains one).  A
   plain growable [bytes] rather than [Buffer] so consumers can view a
   span without copying.  In window mode it is reset per event; in
   retain mode it persists and becomes the appendix of a built tree. *)
module Scratch = struct
  type t = { mutable b : bytes; mutable len : int }

  let create n = { b = Bytes.create n; len = 0 }
  let clear s = s.len <- 0
  let length s = s.len

  let ensure s n =
    if s.len + n > Bytes.length s.b then begin
      let cap = ref (max 64 (2 * Bytes.length s.b)) in
      while s.len + n > !cap do
        cap := 2 * !cap
      done;
      let nb = Bytes.create !cap in
      Bytes.blit s.b 0 nb 0 s.len;
      s.b <- nb
    end

  let add_char s c =
    ensure s 1;
    Bytes.unsafe_set s.b s.len c;
    s.len <- s.len + 1

  let add_subbytes s src off len =
    ensure s len;
    Bytes.blit src off s.b s.len len;
    s.len <- s.len + len

  let sub s off len = Bytes.sub_string s.b off len
  let contents s = Bytes.sub_string s.b 0 s.len
end

(* Spans are coded in one int: [off >= 0] is an absolute offset into the
   reader's byte region, [off < 0] is [lnot off] into the scratch. *)

type t = {
  rd : reader;
  keep_ws : bool;
  budget : Budget.t option;
  pool : Pool.t;
  scratch : Scratch.t;
  orig : string option; (* [of_string] input, for zero-copy [retained] *)
  mutable stack : int array; (* open elements' name ids, innermost last *)
  mutable depth : int; (* open elements in [stack] *)
  depth_limit : int; (* the budget's [max_depth], [max_int] without one *)
  mutable seen_root : bool;
  mutable seen_doctype : bool;
  mutable at_start : bool; (* before the first byte: BOM goes here *)
  mutable finished : bool;
  (* cursor state, valid between [cursor_next] calls *)
  mutable name_id : int; (* pool id of the current element's name *)
  mutable a_cnt : int;
  mutable a_names : string array;
  mutable a_off : int array;
  mutable a_len : int array;
  mutable text_off : int;
  mutable text_len : int;
  mutable non_ws : bool; (* current text run has a non-whitespace char *)
  mutable pending_end : bool; (* self-closing: deliver the end next *)
  mutable countdown : int; (* events left before the next budget tick *)
}

(* Events are settled on a budget in batches of [tick_batch].  Without a
   budget the countdown starts at [max_int], so it never runs out: bare
   and budgeted parses run the same instructions per event. *)
let tick_batch = 32

let full_countdown = function Some _ -> tick_batch | None -> max_int

let mk rd keep_ws budget orig =
  {
    rd;
    keep_ws;
    budget;
    pool = Pool.create ();
    scratch = Scratch.create 256;
    orig;
    stack = Array.make 16 0;
    depth = 0;
    depth_limit =
      (match budget with
      | Some b -> Budget.max_depth_limit b
      | None -> max_int);
    seen_root = false;
    seen_doctype = false;
    at_start = true;
    finished = false;
    name_id = 0;
    a_cnt = 0;
    a_names = Array.make 8 "";
    a_off = Array.make 8 0;
    a_len = Array.make 8 0;
    text_off = 0;
    text_len = 0;
    non_ws = false;
    pending_end = false;
    countdown = full_countdown budget;
  }

let of_string ?(keep_ws = false) ?budget ?(retain = false) s =
  mk (reader_of_string ~retain s) keep_ws budget (Some s)

let of_channel ?(keep_ws = false) ?budget ?(chunk_size = chunk_size)
    ?(retain = false) ic =
  mk (reader_of_channel ~retain ~chunk:chunk_size ic) keep_ws budget None

(* ------------------------------------------------------------------ *)
(* Lexing.  Everything below records spans; nothing copies document
   bytes except the scratch fallback on reference-bearing segments. *)

(* Consume a name; returns its absolute start (it ends at [pos]). *)
let scan_name rd =
  if not (has rd) then err rd "unexpected end of input in name";
  let c0 = cur rd in
  if not (is_name_start c0) then
    err rd (Printf.sprintf "invalid name start %C" c0);
  let start = rd.base + rd.pos in
  advance rd;
  let continue = ref true in
  while !continue do
    let b = rd.buf and len = rd.len in
    let i = ref rd.pos in
    while !i < len && is_name_char (Bytes.unsafe_get b !i) do
      incr i
    done;
    rd.pos <- !i;
    if !i < len || not (refill rd) then continue := false
  done;
  start

(* Consume a name and return its pool id.  A name that ends inside the
   buffer is scanned and hashed in one loop; one that reaches the end of
   the buffer, or an invalid one, takes {!scan_name}, which refills and
   reports errors, and is hashed afterwards. *)
let read_name t =
  let rd = t.rd in
  let b = rd.buf and len = rd.len and p0 = rd.pos in
  let i = ref p0 and h = ref Pool.fnv_basis in
  if p0 < len && is_name_start (Bytes.unsafe_get b p0) then begin
    let scanning = ref true in
    while !scanning do
      let c = Bytes.unsafe_get b !i in
      if is_name_char c then begin
        h := Pool.fnv !h c;
        incr i;
        if !i = len then scanning := false
      end
      else scanning := false
    done
  end;
  if !i > p0 && !i < len then begin
    rd.pos <- !i;
    Pool.intern_hashed t.pool b p0 (!i - p0) !h
  end
  else
    let start = scan_name rd in
    let off = start - rd.base and len = rd.base + rd.pos - start in
    Pool.intern_hashed t.pool rd.buf off len (Pool.hash_range rd.buf off len)

(* The XML 1.0 Char production: anything else is not expressible in a
   well-formed document, even via a character reference. *)
let is_xml_char code =
  code = 0x9 || code = 0xA || code = 0xD
  || (code >= 0x20 && code <= 0xD7FF)
  || (code >= 0xE000 && code <= 0xFFFD)
  || (code >= 0x10000 && code <= 0x10FFFF)

(* Entity and character references.  This is an expansion site, so it
   carries its own failpoint and a hard cap on the digit run: a reference
   can never expand to more than four bytes, and its textual form is
   bounded too, so reference floods cost no more than the input itself.
   Decoded bytes go to the scratch; the result says whether any of them
   is non-whitespace (for the whitespace-only-text check). *)
let max_charref_digits = 10

let read_reference t =
  (* '&' already consumed *)
  Failpoint.trigger "pull.ref";
  let rd = t.rd in
  if not (has rd) then err rd "unexpected end of input in reference";
  if cur rd = '#' then begin
    advance rd;
    let hex =
      if has rd && cur rd = 'x' then begin
        advance rd;
        true
      end
      else false
    in
    let dstart = rd.base + rd.pos in
    let ndigits = ref 0 in
    let continue = ref true in
    while !continue do
      if not (has rd) then continue := false
      else begin
        let c = cur rd in
        if
          (c >= '0' && c <= '9')
          || (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')))
        then begin
          if !ndigits >= max_charref_digits then
            err rd "character reference out of range";
          advance rd;
          incr ndigits
        end
        else continue := false
      end
    done;
    let dlen = rd.base + rd.pos - dstart in
    expect rd ';';
    if dlen = 0 then err rd "empty character reference";
    let code = ref 0 in
    let radix = if hex then 16 else 10 in
    for i = dstart - rd.base to dstart - rd.base + dlen - 1 do
      let c = Bytes.unsafe_get rd.buf i in
      let v =
        if c >= '0' && c <= '9' then Char.code c - Char.code '0'
        else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
        else Char.code c - Char.code 'A' + 10
      in
      code := (!code * radix) + v
    done;
    let code = !code in
    if not (is_xml_char code) then
      err rd
        (Printf.sprintf
           "character reference &#%s%s; is not a legal XML character"
           (if hex then "x" else "")
           (Bytes.sub_string rd.buf (dstart - rd.base) dlen));
    (* Encode as UTF-8 into the scratch. *)
    let b = t.scratch in
    (if code < 0x80 then Scratch.add_char b (Char.chr code)
     else if code < 0x800 then begin
       Scratch.add_char b (Char.chr (0xC0 lor (code lsr 6)));
       Scratch.add_char b (Char.chr (0x80 lor (code land 0x3F)))
     end
     else if code < 0x10000 then begin
       Scratch.add_char b (Char.chr (0xE0 lor (code lsr 12)));
       Scratch.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
       Scratch.add_char b (Char.chr (0x80 lor (code land 0x3F)))
     end
     else begin
       Scratch.add_char b (Char.chr (0xF0 lor (code lsr 18)));
       Scratch.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
       Scratch.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
       Scratch.add_char b (Char.chr (0x80 lor (code land 0x3F)))
     end);
    not (code = 0x20 || code = 0x9 || code = 0xA || code = 0xD)
  end
  else begin
    let name = Pool.name t.pool (read_name t) in
    expect t.rd ';';
    let expansion =
      match name with
      | "lt" -> '<'
      | "gt" -> '>'
      | "amp" -> '&'
      | "apos" -> '\''
      | "quot" -> '"'
      | other -> err rd (Printf.sprintf "unknown entity &%s;" other)
    in
    Scratch.add_char t.scratch expansion;
    true
  end

(* Flush the raw segment [start, upto) (absolute offsets) to scratch. *)
let flush_segment t start upto =
  let rd = t.rd in
  Scratch.add_subbytes t.scratch rd.buf (start - rd.base) (upto - start)

let read_attr_value t =
  let rd = t.rd in
  let quote = read rd in
  if quote <> '"' && quote <> '\'' then err rd "expected quoted attribute value";
  let seg_start = ref (rd.base + rd.pos) in
  let smark = ref (-1) in
  let continue = ref true in
  while !continue do
    let b = rd.buf and len = rd.len in
    let i = ref rd.pos in
    while
      !i < len
      &&
      let c = Bytes.unsafe_get b !i in
      c <> quote && c <> '&' && c <> '<'
    do
      incr i
    done;
    if !i < len then begin
      let c = Bytes.unsafe_get b !i in
      rd.pos <- !i + 1;
      if c = quote then continue := false
      else if c = '&' then begin
        if !smark < 0 then smark := Scratch.length t.scratch;
        flush_segment t !seg_start (rd.base + !i);
        ignore (read_reference t : bool);
        seg_start := rd.base + rd.pos
      end
      else err rd "'<' in attribute value"
    end
    else begin
      rd.pos <- !i;
      if not (refill rd) then err rd "unexpected end of input"
    end
  done;
  let stop = rd.base + rd.pos - 1 in
  if !smark < 0 then (!seg_start, stop - !seg_start)
  else begin
    flush_segment t !seg_start stop;
    (lnot !smark, Scratch.length t.scratch - !smark)
  end

let push_attr t key off len =
  if t.a_cnt = Array.length t.a_names then begin
    let n = 2 * t.a_cnt in
    let names = Array.make n "" in
    let offs = Array.make n 0 in
    let lens = Array.make n 0 in
    Array.blit t.a_names 0 names 0 t.a_cnt;
    Array.blit t.a_off 0 offs 0 t.a_cnt;
    Array.blit t.a_len 0 lens 0 t.a_cnt;
    t.a_names <- names;
    t.a_off <- offs;
    t.a_len <- lens
  end;
  t.a_names.(t.a_cnt) <- key;
  t.a_off.(t.a_cnt) <- off;
  t.a_len.(t.a_cnt) <- len;
  t.a_cnt <- t.a_cnt + 1

let read_attributes t =
  t.a_cnt <- 0;
  let rd = t.rd in
  let continue = ref true in
  while !continue do
    skip_ws rd;
    if not (has rd) then continue := false
    else begin
      let c = cur rd in
      if c = '/' || c = '>' then continue := false
      else if is_name_start c then begin
        let key = Pool.name t.pool (read_name t) in
        skip_ws rd;
        expect rd '=';
        skip_ws rd;
        let off, len = read_attr_value t in
        for i = 0 to t.a_cnt - 1 do
          if String.equal t.a_names.(i) key then
            err rd (Printf.sprintf "duplicate attribute %s" key)
        done;
        push_attr t key off len
      end
      else err rd (Printf.sprintf "unexpected %C in tag" c)
    end
  done

(* Skip past the "-->" that ends a comment: the first '>' after two or
   more hyphens, so "--->" closes too ("--" inside is tolerated). *)
let skip_comment rd =
  let rec loop dashes =
    match read rd with
    | '-' -> loop (dashes + 1)
    | '>' when dashes >= 2 -> ()
    | _ -> loop 0
  in
  loop 0

(* Skip past the "?>" that ends a processing instruction. *)
let skip_pi rd =
  let rec loop after_q =
    match read rd with
    | '>' when after_q -> ()
    | c -> loop (c = '?')
  in
  loop false

(* Skip a DOCTYPE declaration, including a bracketed internal subset.
   Quoted literals are opaque — a '>' inside a SYSTEM id must not close
   the declaration — and a ']' without a matching '[' is malformed, not a
   license to scan to end of input. *)
let skip_doctype rd =
  let skip_literal q =
    let rec lit () = if read rd <> q then lit () in
    lit ()
  in
  let rec loop depth =
    match read rd with
    | ('"' | '\'') as q ->
      skip_literal q;
      loop depth
    | '[' -> loop (depth + 1)
    | ']' ->
      if depth = 0 then err rd "']' outside the internal subset in DOCTYPE"
      else loop (depth - 1)
    | '>' when depth = 0 -> ()
    | _ -> loop depth
  in
  loop 0

(* A UTF-8 byte-order mark before the prolog is legal and invisible;
   UTF-16/UTF-32 marks name an encoding this byte-level parser does not
   speak, which deserves a clear rejection rather than "text outside the
   root element". *)
let skip_bom rd =
  if has rd then
    match cur rd with
    | '\xEF' ->
      advance rd;
      let b = read rd in
      let c = read rd in
      if b <> '\xBB' || c <> '\xBF' then
        err rd "malformed UTF-8 byte-order mark";
      settle rd;
      rd.col <- 1
    | '\xFE' | '\xFF' | '\x00' ->
      err rd "unsupported encoding (UTF-16/UTF-32 byte-order mark?)"
    | _ -> ()

(* CDATA content is exactly the bytes before the first "]]>" — a pure
   span, never copied (the old shifting-bracket loop computed the same
   set of bytes one [Buffer.add_char] at a time). *)
let read_cdata t =
  let rd = t.rd in
  expect_str rd "CDATA[";
  let start = rd.base + rd.pos in
  let run = ref 0 in
  let stop = ref (-1) in
  while !stop < 0 do
    let c = read rd in
    if c = ']' then incr run
    else if c = '>' && !run >= 2 then stop := rd.base + rd.pos - 3
    else run := 0
  done;
  t.text_off <- start;
  t.text_len <- !stop - start

(* A text run: whitespace bytes are scanned by one loop until the first
   non-whitespace byte, the rest by a loop that only looks for the
   run's end ('<') and references ('&'). *)
let read_text t =
  let rd = t.rd in
  let non_ws = ref false in
  let seg_start = ref (rd.base + rd.pos) in
  let smark = ref (-1) in
  let continue = ref true in
  while !continue do
    let b = rd.buf and len = rd.len in
    let i = ref rd.pos in
    if not !non_ws then begin
      while !i < len && is_ws (Bytes.unsafe_get b !i) do
        incr i
      done;
      if !i < len then begin
        let c = Bytes.unsafe_get b !i in
        if c <> '<' && c <> '&' then non_ws := true
      end
    end;
    while
      !i < len
      &&
      let c = Bytes.unsafe_get b !i in
      c <> '<' && c <> '&'
    do
      incr i
    done;
    if !i < len then begin
      if Bytes.unsafe_get b !i = '<' then begin
        rd.pos <- !i;
        continue := false
      end
      else begin
        rd.pos <- !i + 1;
        if !smark < 0 then smark := Scratch.length t.scratch;
        flush_segment t !seg_start (rd.base + !i);
        if read_reference t then non_ws := true;
        seg_start := rd.base + rd.pos
      end
    end
    else begin
      rd.pos <- !i;
      if not (refill rd) then continue := false
    end
  done;
  t.non_ws <- !non_ws;
  let stop = rd.base + rd.pos in
  if !smark < 0 then begin
    t.text_off <- !seg_start;
    t.text_len <- stop - !seg_start
  end
  else begin
    flush_segment t !seg_start stop;
    t.text_off <- lnot !smark;
    t.text_len <- Scratch.length t.scratch - !smark
  end

(* [</n>] with [n] the open element's name and both lying in the buffer:
   consumed in place.  Anything else — a refill inside the tag, a space
   before '>', a mismatch — leaves [pos] alone for the general path. *)
let end_in_place t =
  let rd = t.rd in
  t.depth > 0
  &&
  let top = Pool.name t.pool t.stack.(t.depth - 1) and p = rd.pos in
  let n = String.length top in
  p + n < rd.len
  && Bytes.unsafe_get rd.buf (p + n) = '>'
  && Pool.matches top rd.buf p n
  &&
  (rd.pos <- p + n + 1;
   true)

(* ------------------------------------------------------------------ *)
(* The event scanner.  All recursive calls are tail calls, so nesting of
   skipped constructs (comments, PIs) costs no stack.  [pin] is reset at
   each iteration: spans handed out for one event stay valid exactly
   until the next [cursor_next]. *)
let rec scan t =
  let rd = t.rd in
  rd.pin <- rd.base + rd.pos;
  if t.at_start then begin
    t.at_start <- false;
    skip_bom rd
  end;
  if not (has rd) then
    if t.depth > 0 then err rd "unexpected end of input: unclosed elements"
    else if not t.seen_root then err rd "empty document"
    else begin
      t.finished <- true;
      Cursor_eof
    end
  else if cur rd = '<' then begin
    advance rd;
    if not (has rd) then err rd "unexpected end of input after '<'";
    match cur rd with
    | '?' ->
      advance rd;
      skip_pi rd;
      scan t
    | '!' ->
      advance rd;
      if not (has rd) then err rd "unexpected end of input after <!";
      (match cur rd with
      | '-' ->
        expect_str rd "--";
        skip_comment rd;
        scan t
      | '[' ->
        advance rd;
        if t.depth = 0 then err rd "CDATA outside the root element";
        read_cdata t;
        if t.text_len = 0 then scan t else Cursor_text
      | 'D' ->
        expect_str rd "DOCTYPE";
        if t.seen_root || t.depth > 0 then
          err rd "DOCTYPE is only allowed before the root element";
        if t.seen_doctype then err rd "multiple DOCTYPE declarations";
        t.seen_doctype <- true;
        skip_doctype rd;
        scan t
      | c -> err rd (Printf.sprintf "unexpected <!%C" c))
    | '/' ->
      (* The closing name is compared byte for byte with the open
         element's, never interned: the event reports the open name. *)
      advance rd;
      if not (end_in_place t) then begin
        let start = scan_name rd in
        let len = rd.base + rd.pos - start in
        skip_ws rd;
        expect rd '>';
        let off = start - rd.base in
        if t.depth = 0 then
          err rd
            (Printf.sprintf "closing tag </%s> with no open element"
               (Bytes.sub_string rd.buf off len));
        let top = Pool.name t.pool t.stack.(t.depth - 1) in
        if not (Pool.matches top rd.buf off len) then
          err rd
            (Printf.sprintf "closing tag </%s> does not match <%s>"
               (Bytes.sub_string rd.buf off len)
               top)
      end;
      t.depth <- t.depth - 1;
      t.name_id <- t.stack.(t.depth);
      Cursor_end
    | _ ->
      let id = read_name t in
      (* [<n>] and [<n/>]: no attributes when the name ends the tag. *)
      if
        rd.pos < rd.len
        &&
        let c = Bytes.unsafe_get rd.buf rd.pos in
        c = '>' || c = '/'
      then t.a_cnt <- 0
      else read_attributes t;
      if t.depth = 0 && t.seen_root then
        err rd "document has more than one root element";
      t.seen_root <- true;
      (match read rd with
      | '>' ->
        if t.depth = Array.length t.stack then begin
          let st = Array.make (2 * t.depth) 0 in
          Array.blit t.stack 0 st 0 t.depth;
          t.stack <- st
        end;
        t.stack.(t.depth) <- id;
        t.depth <- t.depth + 1;
        Failpoint.trigger "pull.depth";
        if t.depth > t.depth_limit then
          Option.iter (fun b -> Budget.check_depth b t.depth) t.budget;
        t.name_id <- id;
        Cursor_start
      | '/' ->
        expect rd '>';
        t.pending_end <- true;
        t.name_id <- id;
        Cursor_start
      | c -> err rd (Printf.sprintf "unexpected %C in start tag" c))
  end
  else begin
    read_text t;
    if t.depth = 0 then begin
      if t.non_ws then err rd "text outside the root element" else scan t
    end
    else if (not t.keep_ws) && not t.non_ws then scan t
    else Cursor_text
  end

(* Every delivered event counts against [max_nodes], but the counting is
   settled in batches of [tick_batch] — the same amortization the
   evaluators use — so the per-event cost is one decrement and one
   compare, with or without a budget.  The remainder (plus a final
   deadline check) settles whenever end-of-stream is delivered. *)
let settle_budget t =
  match t.budget with
  | None -> ()
  | Some b ->
    let k = tick_batch - t.countdown in
    t.countdown <- tick_batch;
    if k > 0 then Budget.tick_nodes b k;
    Budget.check_deadline b

(* The public entry: one failpoint branch (no-op unless armed) and one
   countdown step per event delivered. *)
let cursor_next t =
  Failpoint.trigger "pull.read";
  let k = t.countdown - 1 in
  if k > 0 then t.countdown <- k
  else begin
    t.countdown <- full_countdown t.budget;
    Option.iter (fun b -> Budget.tick_nodes b tick_batch) t.budget
  end;
  if t.pending_end then begin
    t.pending_end <- false;
    Cursor_end
  end
  else if t.finished then begin
    settle_budget t;
    Cursor_eof
  end
  else begin
    if not t.rd.retain then Scratch.clear t.scratch;
    match scan t with
    | Cursor_eof ->
      settle_budget t;
      Cursor_eof
    | s -> s
  end

(* ------------------------------------------------------------------ *)
(* Cursor accessors. *)

let cur_name t = Pool.name t.pool t.name_id
let cur_name_id t = t.name_id
let cur_attr_count t = t.a_cnt
let cur_attr_name t i = t.a_names.(i)

let span_string t off len =
  if len = 0 then ""
  else if off >= 0 then Bytes.sub_string t.rd.buf (off - t.rd.base) len
  else Scratch.sub t.scratch (lnot off) len

let cur_attr_value t i = span_string t t.a_off.(i) t.a_len.(i)
let cur_text t = span_string t t.text_off t.text_len

let borrowed t off len =
  if off >= 0 then (Bytes.unsafe_to_string t.rd.buf, off - t.rd.base, len)
  else (Bytes.unsafe_to_string t.scratch.Scratch.b, lnot off, len)

let cur_text_span t = borrowed t t.text_off t.text_len
let cur_attr_span t i = borrowed t t.a_off.(i) t.a_len.(i)

let cur_attrs t =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) ((t.a_names.(i), cur_attr_value t i) :: acc)
  in
  go (t.a_cnt - 1) []

let cur_text_raw t = (t.text_off, t.text_len)
let offset t = t.rd.base + t.rd.pos
let cur_attr_raw t i = (t.a_off.(i), t.a_len.(i))
let scratch_contents t = Scratch.contents t.scratch

let retained t =
  match t.orig with
  | Some s -> s
  | None ->
    let rd = t.rd in
    if Bytes.length rd.buf = rd.len then Bytes.unsafe_to_string rd.buf
    else Bytes.sub_string rd.buf 0 rd.len

(* ------------------------------------------------------------------ *)
(* Compatibility event API on top of the cursor. *)

let next t =
  match cursor_next t with
  | Cursor_eof -> None
  | Cursor_start -> Some (Start_element (cur_name t, cur_attrs t))
  | Cursor_end -> Some (End_element (cur_name t))
  | Cursor_text -> Some (Text (cur_text t))

let fold t ~init ~f =
  let rec loop acc =
    match next t with None -> acc | Some ev -> loop (f acc ev)
  in
  loop init

let line t =
  settle t.rd;
  t.rd.line

let column t =
  settle t.rd;
  t.rd.col
