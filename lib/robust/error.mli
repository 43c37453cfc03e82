(** The unified error taxonomy of the SMOQE façade.

    Seven unrelated exception types used to leak through the
    [result]-returning [Engine]/[Session] API ([Pull.Error],
    [Rxpath.Parser] failures, [Derive.Unsupported],
    [Expr_rewriter.Too_large], [Hype.Engine.Driver_error], [Sys_error],
    …).  This module gives them one home: every error a query can produce
    is a value of {!t}, and {!guard} is the boundary combinator that turns
    any escaped exception into one.

    Layering: this module knows nothing about the rest of SMOQE and keeps
    no state.  {!classify} covers the standard library,
    {!Budget.Exceeded} and {!Failpoint.Injected}; an upper layer that
    raises exceptions of its own classifies them in its own guard and
    falls back to {!classify} for the rest ([Smoqe.Engine] does so for
    the parser, derivation and HyPE driver exceptions). *)

type location = {
  file : string option;
  line : int;  (** 1-based; 0 when unknown *)
  col : int;
}

type t =
  | Parse_error of { loc : location option; msg : string }
      (** malformed XML / DTD / policy text *)
  | Query_error of string  (** the query itself is unusable *)
  | Policy_error of string  (** policy, view or group problems *)
  | Budget_exceeded of {
      what : string;  (** which budget dimension, e.g. ["max_nodes"] *)
      limit : string;  (** the configured bound, rendered *)
      partial_stats : (string * int) list;
          (** evaluation counters at the moment the budget tripped *)
    }
  | Update_denied of { node : int; msg : string }
      (** the active security view forbids the update; [node] is the
          offending document node (the first view-hidden node the edit
          would touch, or the first node whose visibility it would flip).
          The document is untouched — updates never leave partial state. *)
  | Io_error of string  (** file system, store or injected I/O faults *)
  | Internal of string  (** driver contract violations, overflows, bugs *)

val location : ?file:string -> line:int -> col:int -> unit -> location

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val exit_code : t -> int
(** Process exit code for CLI front-ends: 2 for [Parse_error] (malformed
    input — the document, DTD or policy text, not the system, is at
    fault), 3 for [Budget_exceeded], 4 for [Update_denied] (the security
    view rejected a write), 1 for everything else (0 is success and never
    returned here). *)

val classify : exn -> t
(** Map any exception to the taxonomy.  Never raises. *)

val guard : (unit -> 'a) -> ('a, t) result
(** [guard f] runs [f] and converts {e any} exception into [Error] via
    {!classify}. *)
