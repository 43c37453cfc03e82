(** Streaming XML pull parser — the StAX mode of SMOQE.

    A single sequential scan of the input produces a stream of events; no
    tree is built.  The parser handles the XML 1.0 constructs needed by
    data-centric documents: a UTF-8 byte-order mark, prolog, DOCTYPE
    (skipped, quote- and subset-aware, prolog-only), comments, processing
    instructions (skipped), CDATA, attributes, self-closing tags, the five
    predefined entities and numeric character references (validated
    against the XML [Char] production — [&#0;] and surrogate references
    are rejected).

    Well-formedness is enforced: mismatched or unbalanced tags, text outside
    the root element, duplicate attribute names, multiple roots, or a
    misplaced DOCTYPE raise {!Error} with a location.  The totality
    contract (DESIGN.md §12): on {e any} byte sequence, the stream either
    delivers events or raises a positioned {!Error} (or a typed budget /
    failpoint exception) — never [Invalid_argument], [Stack_overflow] or
    unbounded memory growth.

    {b Zero-copy ingest} (DESIGN.md §15): document bytes live in one
    growable byte region and the lexer records [(offset, length)] spans
    into it instead of copying.  The {{!cursor}cursor API} exposes those
    spans directly; the {!event} API materializes strings on top of it
    and behaves exactly as before.  Segments containing entity or
    character references are decoded once into a per-parser scratch
    region — a reference-free token never copies document bytes at
    all. *)

type event =
  | Start_element of string * (string * string) list
  | End_element of string
  | Text of string

type t

exception Error of int * int * string
(** [Error (line, column, message)] — 1-based location of a syntax or
    well-formedness error. *)

val of_string :
  ?keep_ws:bool -> ?budget:Smoqe_robust.Budget.t -> ?retain:bool -> string -> t
(** Parse from a string — zero-copy: the input becomes the byte region,
    nothing is duplicated.  When [keep_ws] is [false] (the default),
    whitespace-only text between elements is dropped, matching the
    data-centric documents of the paper.  With [budget], every delivered
    event is counted against [max_nodes] (settled in small batches, like
    the evaluators, plus periodic deadline checks), and open-element
    nesting against [max_depth].  With [retain] (see
    {!of_channel}), the scratch region persists across events so a tree
    builder can keep spans into it. *)

val of_channel :
  ?keep_ws:bool ->
  ?budget:Smoqe_robust.Budget.t ->
  ?chunk_size:int ->
  ?retain:bool ->
  in_channel ->
  t
(** Parse incrementally from a channel, refilling one reused buffer in
    [chunk_size]-byte reads (no per-refill allocation).  By default
    ([retain = false]) consumed bytes are discarded as parsing advances,
    so memory stays proportional to the largest single event, not the
    document.  With [retain = true] every byte is kept: spans returned
    by the cursor are then stable offsets into {!retained} — this is the
    mode the DOM builder uses to share one arena with the parse. *)

val next : t -> event option
(** The next event, or [None] once the root element has been closed and
    only trailing whitespace/comments remain.  May raise {!Error},
    [Smoqe_robust.Budget.Exceeded] when a budget trips, or
    [Smoqe_robust.Failpoint.Injected] under the ["pull.read"] failpoint
    (per event), the ["pull.depth"] failpoint (at the lexer's depth
    budget-check site, per open element) or the ["pull.ref"] failpoint
    (at the entity/character-reference expansion site). *)

val fold : t -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Drain the stream. *)

val line : t -> int
val column : t -> int

(** {1:cursor Cursor API}

    The allocation-free view of the stream.  {!cursor_next} advances to
    the next event and returns its kind; the [cur_*] accessors then
    describe it.  Element and attribute names are interned — the same
    name always returns the {e same} string, so repeated tags cost no
    allocation and compare by pointer first.  Everything else is a span;
    accessors that return strings materialize a copy on demand.

    Lifetime rule: spans (and the strings backing {!cur_text_span}) are
    valid only until the next {!cursor_next} call — except in [retain]
    mode, where raw spans are stable for the whole parse.  {!cursor_next}
    carries the same failpoint/budget semantics as {!next}. *)

type signal = Cursor_start | Cursor_end | Cursor_text | Cursor_eof

val cursor_next : t -> signal

val cur_name : t -> string
(** Tag of the current start or end element (interned). *)

val cur_attr_count : t -> int
val cur_attr_name : t -> int -> string
val cur_attr_value : t -> int -> string

val cur_attrs : t -> (string * string) list
(** Materialized attribute list of the current start element. *)

val cur_text : t -> string
(** Materialized content of the current text event. *)

val cur_text_span : t -> string * int * int
(** [(backing, off, len)] — the current text content as a borrowed slice,
    no copy unless the segment needed reference decoding into a fresh
    region.  The backing string aliases the parser's mutable buffer:
    consume it before the next {!cursor_next} and never retain it. *)

(** {1 Arena access}

    For builders running the parser in [retain] mode.  Raw spans encode
    their region in the sign: [off >= 0] is an offset into {!retained},
    [off < 0] is [lnot off] into {!scratch_contents} — the same coding
    {!Tree} uses for its packed content arrays, so a builder can store
    them verbatim. *)

val cur_text_raw : t -> int * int
val cur_attr_raw : t -> int -> int * int

val offset : t -> int
(** Absolute offset of the next unread input byte: how far the parse
    has got. *)

val retained : t -> string
(** The document bytes seen so far (the whole document, once the parse
    ends).  Zero-copy for [of_string] parsers.  Meaningful only in
    [retain] mode. *)

val scratch_contents : t -> string
(** The decoded-segment region accumulated so far ([retain] mode). *)
