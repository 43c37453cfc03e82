(* Binary format (all integers LEB128 varints):
     magic "TAX1"
     n_nodes  n_tags  n_distinct_rows
     dictionary: for each row, bit count then delta-encoded bit positions
     body: run-length encoded row references: (row_index, run_length)*
   Rows are interned in first-occurrence order. *)

let magic = "TAX1"

let add_varint buf n =
  if n < 0 then invalid_arg "Codec: negative integer";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n

type reader = { data : bytes; mutable pos : int }

exception Corrupt of string

let read_varint r =
  let rec go shift acc =
    if r.pos >= Bytes.length r.data then raise (Corrupt "truncated varint");
    let b = Char.code (Bytes.get r.data r.pos) in
    r.pos <- r.pos + 1;
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let to_bytes idx =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  let n = Tax.n_nodes idx and n_tags = Tax.n_tags idx in
  add_varint buf n;
  add_varint buf n_tags;
  (* Intern rows. *)
  let dict = Hashtbl.create 64 in
  let rev_rows = ref [] in
  let n_rows = ref 0 in
  let row_ids =
    Array.init n (fun node ->
        let row = Tax.row_bits idx node in
        match Hashtbl.find_opt dict row with
        | Some id -> id
        | None ->
          let id = !n_rows in
          incr n_rows;
          Hashtbl.add dict row id;
          rev_rows := row :: !rev_rows;
          id)
  in
  add_varint buf !n_rows;
  List.iter
    (fun row ->
      add_varint buf (List.length row);
      let prev = ref 0 in
      List.iter
        (fun tag ->
          add_varint buf (tag - !prev);
          prev := tag)
        row)
    (List.rev !rev_rows);
  (* Run-length encode the row references. *)
  let i = ref 0 in
  while !i < n do
    let id = row_ids.(!i) in
    let j = ref (!i + 1) in
    while !j < n && row_ids.(!j) = id do
      incr j
    done;
    add_varint buf id;
    add_varint buf (!j - !i);
    i := !j
  done;
  Buffer.to_bytes buf

let of_bytes data =
  try
    if Bytes.length data < 4 || Bytes.sub_string data 0 4 <> magic then
      raise (Corrupt "bad magic");
    let r = { data; pos = 4 } in
    let n = read_varint r in
    let n_tags = read_varint r in
    let n_rows = read_varint r in
    if n_rows > n + 1 then raise (Corrupt "implausible dictionary size");
    let dict =
      Array.init n_rows (fun _ ->
          let count = read_varint r in
          if count > n_tags then raise (Corrupt "row wider than tag space");
          let prev = ref 0 in
          List.init count (fun _ ->
              let tag = !prev + read_varint r in
              prev := tag;
              tag))
    in
    let rows = Array.make n [] in
    let filled = ref 0 in
    while !filled < n do
      let id = read_varint r in
      let len = read_varint r in
      if id >= n_rows then raise (Corrupt "row reference out of range");
      if len = 0 || !filled + len > n then raise (Corrupt "bad run length");
      for k = !filled to !filled + len - 1 do
        rows.(k) <- dict.(id)
      done;
      filled := !filled + len
    done;
    if r.pos <> Bytes.length data then raise (Corrupt "trailing bytes");
    Ok (Tax.of_rows ~n_tags rows)
  with
  | Corrupt msg -> Error msg
  | Invalid_argument msg -> Error msg

let save path idx =
  Smoqe_robust.Atomic_file.write path (Bytes.unsafe_to_string (to_bytes idx))

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let result =
      try
        let len = in_channel_length ic in
        let data = Bytes.create len in
        really_input ic data 0 len;
        of_bytes data
      with
      | End_of_file -> Error "truncated file"
      | Sys_error msg -> Error msg
    in
    close_in_noerr ic;
    result
