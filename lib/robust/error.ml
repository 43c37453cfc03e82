type location = {
  file : string option;
  line : int;
  col : int;
}

type t =
  | Parse_error of { loc : location option; msg : string }
  | Query_error of string
  | Policy_error of string
  | Budget_exceeded of {
      what : string;
      limit : string;
      partial_stats : (string * int) list;
    }
  | Update_denied of { node : int; msg : string }
  | Io_error of string
  | Internal of string

let location ?file ~line ~col () = { file; line; col }

let pp_location ppf loc =
  match loc.file with
  | Some f -> Fmt.pf ppf "%s:%d:%d" f loc.line loc.col
  | None -> Fmt.pf ppf "%d:%d" loc.line loc.col

let pp ppf = function
  | Parse_error { loc = Some loc; msg } ->
    Fmt.pf ppf "parse error at %a: %s" pp_location loc msg
  | Parse_error { loc = None; msg } -> Fmt.pf ppf "parse error: %s" msg
  | Query_error msg -> Fmt.pf ppf "query error: %s" msg
  | Policy_error msg -> Fmt.pf ppf "policy error: %s" msg
  | Budget_exceeded { what; limit; _ } ->
    Fmt.pf ppf "budget exceeded: %s (limit %s)" what limit
  | Update_denied { node; msg } ->
    Fmt.pf ppf "update denied: %s (node %d)" msg node
  | Io_error msg -> Fmt.pf ppf "io error: %s" msg
  | Internal msg -> Fmt.pf ppf "internal error: %s" msg

let to_string e = Fmt.str "%a" pp e

let exit_code = function
  | Parse_error _ -> 2
  | Budget_exceeded _ -> 3
  | Update_denied _ -> 4
  | _ -> 1

let classify = function
  | Budget.Exceeded { what; limit } ->
    Budget_exceeded { what; limit; partial_stats = [] }
  | Failpoint.Injected site -> Io_error ("injected fault at " ^ site)
  | Sys_error msg -> Io_error msg
  | End_of_file -> Io_error "unexpected end of file"
  | Stack_overflow -> Internal "stack overflow"
  | Out_of_memory -> Internal "out of memory"
  | Invalid_argument msg -> Internal ("invalid argument: " ^ msg)
  | Failure msg -> Internal msg
  | Not_found -> Internal "not found"
  | Assert_failure (f, l, c) ->
    Internal (Printf.sprintf "assertion failed at %s:%d:%d" f l c)
  | e -> Internal (Printexc.to_string e)

let guard f = match f () with v -> Ok v | exception e -> Error (classify e)
