(* Streaming decoders for trace files: the binary wire format of
   [Trace] (DESIGN §16) and the JSONL rendering, both folded event by
   event without materializing the trace.

   Error discipline follows [Ndn.Topology_spec]: every malformed input
   is reported as a positioned, actionable [error] value — byte offsets
   for the binary format, line numbers for JSONL — never a bare
   exception escaping to the caller. *)

type position = Byte of int | Line of int

type error = { position : position; reason : string }

let pp_error ppf e =
  match e.position with
  | Byte n -> Format.fprintf ppf "byte %d: %s" n e.reason
  | Line n -> Format.fprintf ppf "line %d: %s" n e.reason

let error_to_string e = Format.asprintf "%a" pp_error e

exception Fail of error

let fail position reason = raise (Fail { position; reason })

let failf position fmt = Printf.ksprintf (fail position) fmt

(* --- chunked byte source --- *)

type source = {
  refill : bytes -> int -> int -> int;
      (* [refill buf off len] reads at most [len] bytes into [buf] at
         [off]; 0 means end of stream. *)
  mutable buf : Bytes.t;
  mutable lo : int;  (* first unconsumed byte *)
  mutable hi : int;  (* end of valid bytes *)
  mutable base : int;  (* stream offset of [buf.(0)] *)
  mutable eof : bool;
}

let of_string s =
  {
    refill = (fun _ _ _ -> 0);
    buf = Bytes.of_string s;
    lo = 0;
    hi = String.length s;
    base = 0;
    eof = true;
  }

let of_channel ic =
  {
    refill = input ic;
    buf = Bytes.create 65536;
    lo = 0;
    hi = 0;
    base = 0;
    eof = false;
  }

let offset src = src.base + src.lo

let available src = src.hi - src.lo

(* Try to make [n] bytes available; at end of stream fewer may remain.
   Compacts the window and grows the buffer as needed. *)
let ensure src n =
  if available src < n && not src.eof then begin
    if src.lo > 0 then begin
      let live = available src in
      Bytes.blit src.buf src.lo src.buf 0 live;
      src.base <- src.base + src.lo;
      src.lo <- 0;
      src.hi <- live
    end;
    if n > Bytes.length src.buf then begin
      let nb = Bytes.create (max n (2 * Bytes.length src.buf)) in
      Bytes.blit src.buf 0 nb 0 src.hi;
      src.buf <- nb
    end;
    let continue = ref true in
    while !continue && src.hi - src.lo < n do
      let got = src.refill src.buf src.hi (Bytes.length src.buf - src.hi) in
      if got = 0 then begin
        src.eof <- true;
        continue := false
      end
      else src.hi <- src.hi + got
    done
  end

let take src n =
  let s = Bytes.sub_string src.buf src.lo n in
  src.lo <- src.lo + n;
  s

(* Read one varint straight off the stream (used for the header fields
   and record length prefixes; record payloads are decoded from their
   extracted string). *)
let read_uint src ~what =
  ensure src Varint.max_bytes;
  let avail = available src in
  if avail = 0 then failf (Byte (offset src)) "stream ends where %s is expected" what;
  let window = Bytes.sub_string src.buf src.lo (min avail (Varint.max_bytes + 1)) in
  match Varint.read_uint window 0 with
  | v, consumed ->
    src.lo <- src.lo + consumed;
    v
  | exception Varint.Truncated _ ->
    failf (Byte (offset src)) "stream ends inside the varint encoding %s" what
  | exception Varint.Overflow _ ->
    failf (Byte (offset src)) "varint encoding %s exceeds 9 bytes (corrupt stream?)" what

(* --- growable string table --- *)

type strtab = { mutable arr : string array; mutable n : int }

let strtab_create () = { arr = Array.make 64 ""; n = 0 }

let strtab_push t s =
  if t.n = Array.length t.arr then begin
    let nb = Array.make (2 * t.n) "" in
    Array.blit t.arr 0 nb 0 t.n;
    t.arr <- nb
  end;
  t.arr.(t.n) <- s;
  t.n <- t.n + 1

(* --- binary decoding --- *)

let max_record_bytes = 1 lsl 24

(* Decode helpers over an extracted record payload; [base] is the
   record's stream offset so errors stay absolute. *)
let payload_uint ~base payload pos ~what =
  match Varint.read_uint payload pos with
  | v, pos' -> (v, pos')
  | exception Varint.Truncated p ->
    failf (Byte (base + p)) "record payload ends inside the varint encoding %s" what
  | exception Varint.Overflow p ->
    failf (Byte (base + p)) "varint encoding %s exceeds 9 bytes (corrupt record?)" what

let payload_int ~base payload pos ~what =
  let v, pos' = payload_uint ~base payload pos ~what in
  (Varint.unzigzag v, pos')

let payload_bytes ~base payload pos len ~what =
  if pos + len > String.length payload then
    failf (Byte (base + pos))
      "record payload ends inside %s (%d bytes declared, %d remain)" what len
      (String.length payload - pos)
  else (String.sub payload pos len, pos + len)

let check_header src =
  ensure src 8;
  if available src = 0 then fail (Byte 0) "empty stream: not a binary trace";
  if available src < 8 then
    failf (Byte 0) "stream shorter than the 8-byte magic: not a binary trace";
  let magic = take src 8 in
  if magic <> Trace.binary_magic then
    failf (Byte 0)
      "bad magic %S (expected %S): not a binary ndn trace — JSONL traces go \
       through the jsonl reader"
      magic Trace.binary_magic;
  let version = read_uint src ~what:"the format version" in
  if version <> Trace.binary_version then
    failf (Byte (offset src))
      "unsupported binary trace version %d (this reader implements version %d)"
      version Trace.binary_version;
  let count = read_uint src ~what:"the registry snapshot size" in
  if count = 0 || count > 4096 then
    failf (Byte (offset src)) "implausible registry snapshot size %d" count;
  let kinds = Array.make count Trace.Engine_step in
  for i = 0 to count - 1 do
    let len = read_uint src ~what:"a registry name length" in
    if len > 256 then
      failf (Byte (offset src)) "implausible registry name length %d" len;
    ensure src len;
    if available src < len then
      failf (Byte (offset src)) "stream ends inside the registry snapshot";
    let name = take src len in
    match Trace.kind_of_string name with
    | Some k -> kinds.(i) <- k
    | None ->
      failf
        (Byte (offset src - len))
        "registry snapshot entry %d names unknown trace kind %S — the trace \
         was written by a newer build; regenerate it or upgrade this reader"
        i name
  done;
  kinds

type binary_state = {
  kinds : Trace.kind array;
  tab : strtab;
  mutable prev_ns : int;
}

let resolve_ref ~base st r ~at ~what =
  if r < 0 || r >= st.tab.n then
    failf (Byte (base + at))
      "%s references string #%d but only %d strings are defined so far" what r
      st.tab.n
  else st.tab.arr.(r)

let decode_record st acc f ~base payload =
  let len = String.length payload in
  match payload.[0] with
  | '\x01' ->
    let id, pos = payload_uint ~base payload 1 ~what:"a string id" in
    if id <> st.tab.n then
      failf (Byte (base + 1))
        "string definition id %d out of order (expected %d)" id st.tab.n;
    let slen, pos = payload_uint ~base payload pos ~what:"a string length" in
    let s, pos = payload_bytes ~base payload pos slen ~what:"a string body" in
    if pos <> len then
      failf (Byte (base + pos)) "string record has %d trailing bytes" (len - pos);
    strtab_push st.tab s;
    acc
  | '\x02' ->
    let kid, pos = payload_uint ~base payload 1 ~what:"a kind id" in
    if kid >= Array.length st.kinds then
      failf (Byte (base + 1))
        "kind id %d outside the registry snapshot (%d kinds)" kid
        (Array.length st.kinds);
    let dt, pos = payload_int ~base payload pos ~what:"a time delta" in
    let node_at = pos in
    let node_ref, pos = payload_uint ~base payload pos ~what:"a node ref" in
    let name_at = pos in
    let name_ref, pos = payload_uint ~base payload pos ~what:"a name ref" in
    let nattrs, pos = payload_uint ~base payload pos ~what:"an attr count" in
    let node = resolve_ref ~base st node_ref ~at:node_at ~what:"node" in
    let name = resolve_ref ~base st name_ref ~at:name_at ~what:"name" in
    let attrs = ref [] in
    let pos = ref pos in
    for _ = 1 to nattrs do
      let key_at = !pos in
      let key_ref, p = payload_uint ~base payload !pos ~what:"an attr key ref" in
      let vlen, p = payload_uint ~base payload p ~what:"an attr value length" in
      let v, p = payload_bytes ~base payload p vlen ~what:"an attr value" in
      let key = resolve_ref ~base st key_ref ~at:key_at ~what:"attr key" in
      attrs := (key, v) :: !attrs;
      pos := p
    done;
    if !pos <> len then
      failf (Byte (base + !pos)) "event record has %d trailing bytes" (len - !pos);
    let ns = st.prev_ns + dt in
    st.prev_ns <- ns;
    let event =
      {
        Trace.time = float_of_int ns /. 1e6;
        node;
        kind = st.kinds.(kid);
        name;
        attrs = List.rev !attrs;
      }
    in
    f acc event
  | c -> failf (Byte base) "unknown record tag 0x%02x" (Char.code c)

let fold_binary src ~init ~f =
  try
    let kinds = check_header src in
    let st = { kinds; tab = strtab_create (); prev_ns = 0 } in
    let acc = ref init in
    let running = ref true in
    while !running do
      ensure src 1;
      if available src = 0 then running := false
      else begin
        let record_at = offset src in
        let len = read_uint src ~what:"a record length" in
        if len = 0 || len > max_record_bytes then
          failf (Byte record_at) "implausible record length %d" len;
        ensure src len;
        if available src < len then
          failf (Byte record_at)
            "record truncated: %d payload bytes declared at byte %d but the \
             stream ends after %d"
            len record_at (available src);
        let base = offset src in
        let payload = take src len in
        acc := decode_record st !acc f ~base payload
      end
    done;
    Ok !acc
  with Fail e -> Error e

(* --- JSONL decoding --- *)

(* A minimal parser for the exporter's own JSONL schema: one object per
   line with keys time/node/kind/name/attrs.  Accepts the keys in any
   order; rejects anything else with a line-numbered reason. *)

let read_line_opt src =
  ensure src 1;
  if available src = 0 then None
  else begin
    (* [rel] is relative to [src.lo]; [ensure] compacts the window but
       preserves lo-relative positions, so the scan survives refills. *)
    let rec scan rel =
      if src.lo + rel >= src.hi then
        if src.eof then -1
        else begin
          ensure src (rel + 4096);
          if src.lo + rel >= src.hi then -1 else scan rel
        end
      else if Bytes.get src.buf (src.lo + rel) = '\n' then rel
      else scan (rel + 1)
    in
    match scan 0 with
    | -1 ->
      (* final unterminated line *)
      Some (take src (available src))
    | rel ->
      let line = Bytes.sub_string src.buf src.lo rel in
      src.lo <- src.lo + rel + 1;
      Some line
  end

let parse_jsonl_event ~line_no line =
  let err reason = fail (Line line_no) reason in
  let errf fmt = failf (Line line_no) fmt in
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else err "unexpected end of line" in
  let advance () = incr pos in
  let expect c =
    if !pos >= n || line.[!pos] <> c then
      errf "expected '%c' at column %d" c (!pos + 1)
    else advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string"
      else
        match line.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then err "unterminated escape"
           else
             match line.[!pos] with
             | '"' -> Buffer.add_char b '"'; advance ()
             | '\\' -> Buffer.add_char b '\\'; advance ()
             | '/' -> Buffer.add_char b '/'; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then err "truncated \\u escape"
               else begin
                 let hex = String.sub line !pos 4 in
                 let code =
                   try int_of_string ("0x" ^ hex)
                   with Failure _ -> errf "bad \\u escape %S" hex
                 in
                 if code > 0xff then
                   errf "\\u escape %S outside the exporter's byte range" hex
                 else Buffer.add_char b (Char.chr code);
                 pos := !pos + 4
               end
             | c -> errf "unsupported escape '\\%c'" c);
          go ()
        | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num line.[!pos] do
      advance ()
    done;
    if !pos = start then err "expected a number";
    let s = String.sub line start (!pos - start) in
    try float_of_string s with Failure _ -> errf "malformed number %S" s
  in
  let parse_attrs () =
    expect '{';
    if peek () = '}' then begin
      advance ();
      []
    end
    else begin
      let rec go acc =
        let k = parse_string () in
        expect ':';
        let v = parse_string () in
        let acc = (k, v) :: acc in
        match peek () with
        | ',' -> advance (); go acc
        | '}' -> advance (); List.rev acc
        | c -> errf "expected ',' or '}' in attrs, got '%c'" c
      in
      go []
    end
  in
  let time = ref None and node = ref None and kind = ref None in
  let name = ref None and attrs = ref None in
  expect '{';
  let rec members () =
    let key = parse_string () in
    expect ':';
    (match key with
    | "time" -> time := Some (parse_number ())
    | "node" -> node := Some (parse_string ())
    | "kind" ->
      let s = parse_string () in
      (match Trace.kind_of_string s with
      | Some k -> kind := Some k
      | None -> errf "unknown trace kind %S (registry: lib/sim/trace_kinds.txt)" s)
    | "name" -> name := Some (parse_string ())
    | "attrs" -> attrs := Some (parse_attrs ())
    | k -> errf "unexpected key %S (schema: time,node,kind,name,attrs)" k);
    match peek () with
    | ',' -> advance (); members ()
    | '}' -> advance ()
    | c -> errf "expected ',' or '}', got '%c'" c
  in
  members ();
  if !pos <> n then errf "trailing bytes after the JSON object at column %d" (!pos + 1);
  let req what = function
    | Some v -> v
    | None -> errf "missing key %S" what
  in
  {
    Trace.time = req "time" !time;
    node = req "node" !node;
    kind = req "kind" !kind;
    name = req "name" !name;
    attrs = req "attrs" !attrs;
  }

let fold_jsonl src ~init ~f =
  try
    let acc = ref init in
    let line_no = ref 0 in
    let running = ref true in
    while !running do
      match read_line_opt src with
      | None -> running := false
      | Some "" -> incr line_no (* tolerate blank lines *)
      | Some line ->
        incr line_no;
        acc := f !acc (parse_jsonl_event ~line_no:!line_no line)
    done;
    Ok !acc
  with Fail e -> Error e

(* --- format sniffing --- *)

type detected = Binary | Jsonl | Csv

let detect src =
  ensure src 10;
  let avail = available src in
  let prefix = Bytes.sub_string src.buf src.lo (if avail < 10 then avail else 10) in
  let starts_with p =
    String.length prefix >= String.length p
    && String.sub prefix 0 (String.length p) = p
  in
  if starts_with Trace.binary_magic then Binary
  else if starts_with Trace.csv_header || starts_with "time,node" then Csv
  else Jsonl

let fold_auto src ~init ~f =
  match detect src with
  | Binary -> fold_binary src ~init ~f
  | Csv ->
    Error
      {
        position = Line 1;
        reason =
          "this is a CSV trace; the streaming analyzers read binary or JSONL \
           traces — re-run with --trace-format binary (or jsonl)";
      }
  | Jsonl -> fold_jsonl src ~init ~f
