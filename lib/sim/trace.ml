type kind =
  | Engine_step
  | Cs_hit
  | Cs_miss
  | Cs_insert
  | Cs_evict
  | Cs_expire
  | Interest_received
  | Interest_forwarded
  | Interest_collapsed
  | Data_received
  | Data_sent
  | Pit_timeout
  | Link_transmit
  | Link_drop
  | Rc_draw
  | Rc_fake_miss
  | Rc_hit
  | Cs_flush
  | Fault_link
  | Fault_crash
  | Fault_restart
  | Fault_producer
  | Pit_drop
  | Queue_drop
  | Nack_congested
  | Nack_no_route
  | Nack_pit_full
  | Nack_duplicate
  | Consumer_give_up

type event = {
  time : float;
  node : string;
  kind : kind;
  name : string;
  attrs : (string * string) list;
}

let kind_to_string = function
  | Engine_step -> "engine.step"
  | Cs_hit -> "cs.hit"
  | Cs_miss -> "cs.miss"
  | Cs_insert -> "cs.insert"
  | Cs_evict -> "cs.evict"
  | Cs_expire -> "cs.expire"
  | Interest_received -> "interest.recv"
  | Interest_forwarded -> "interest.fwd"
  | Interest_collapsed -> "interest.collapsed"
  | Data_received -> "data.recv"
  | Data_sent -> "data.sent"
  | Pit_timeout -> "pit.timeout"
  | Link_transmit -> "link.tx"
  | Link_drop -> "link.drop"
  | Rc_draw -> "rc.draw"
  | Rc_fake_miss -> "rc.fake_miss"
  | Rc_hit -> "rc.hit"
  | Cs_flush -> "cs.flush"
  | Fault_link -> "fault.link"
  | Fault_crash -> "fault.crash"
  | Fault_restart -> "fault.restart"
  | Fault_producer -> "fault.producer"
  | Pit_drop -> "pit.drop"
  | Queue_drop -> "queue.drop"
  | Nack_congested -> "nack.congested"
  | Nack_no_route -> "nack.no_route"
  | Nack_pit_full -> "nack.pit_full"
  | Nack_duplicate -> "nack.duplicate"
  | Consumer_give_up -> "consumer.give_up"

let all_kinds =
  [
    Engine_step; Cs_hit; Cs_miss; Cs_insert; Cs_evict; Cs_expire;
    Interest_received; Interest_forwarded; Interest_collapsed; Data_received;
    Data_sent; Pit_timeout; Link_transmit; Link_drop; Rc_draw; Rc_fake_miss;
    Rc_hit; Cs_flush; Fault_link; Fault_crash; Fault_restart; Fault_producer;
    Pit_drop; Queue_drop; Nack_congested; Nack_no_route; Nack_pit_full;
    Nack_duplicate; Consumer_give_up;
  ]

let all_kind_names = List.map kind_to_string all_kinds

(* Stable binary kind ids: the position of each kind's wire name in the
   checked-in registry [lib/sim/trace_kinds.txt].  ndnlint rule T4
   fails the build if a registered kind is missing here or if an id
   disagrees with the registry order, so the binary format and the
   registry cannot drift apart silently. *)
(* ndnlint: hot *)
let kind_id = function
  | Engine_step -> 0
  | Cs_hit -> 1
  | Cs_miss -> 2
  | Cs_insert -> 3
  | Cs_evict -> 4
  | Cs_expire -> 5
  | Interest_received -> 6
  | Interest_forwarded -> 7
  | Interest_collapsed -> 8
  | Data_received -> 9
  | Data_sent -> 10
  | Pit_timeout -> 11
  | Link_transmit -> 12
  | Link_drop -> 13
  | Rc_draw -> 14
  | Rc_fake_miss -> 15
  | Rc_hit -> 16
  | Cs_flush -> 17
  | Fault_link -> 18
  | Fault_crash -> 19
  | Fault_restart -> 20
  | Fault_producer -> 21
  | Pit_drop -> 22
  | Queue_drop -> 23
  | Nack_congested -> 24
  | Nack_no_route -> 25
  | Nack_pit_full -> 26
  | Nack_duplicate -> 27
  | Consumer_give_up -> 28

let kind_table = Array.of_list all_kinds

let kind_of_id i =
  if i < 0 || i >= Array.length kind_table then None else Some kind_table.(i)

let kind_of_string s = List.find_opt (fun k -> kind_to_string k = s) all_kinds

let pp_event ppf e =
  Format.fprintf ppf "[%.6f] %s %s" e.time e.node (kind_to_string e.kind);
  if e.name <> "" then Format.fprintf ppf " %s" e.name;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) e.attrs

(* --- text encodings --- *)

type format = Jsonl | Csv | Binary

let format_of_string s =
  match String.lowercase_ascii s with
  | "jsonl" | "json" -> Some Jsonl
  | "csv" -> Some Csv
  | "binary" | "bin" -> Some Binary
  | _ -> None

let format_to_string = function Jsonl -> "jsonl" | Csv -> "csv" | Binary -> "binary"

let json_escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_jsonl b e =
  Printf.bprintf b "{\"time\":%.6f,\"node\":\"" e.time;
  json_escape_into b e.node;
  Buffer.add_string b "\",\"kind\":\"";
  Buffer.add_string b (kind_to_string e.kind);
  Buffer.add_string b "\",\"name\":\"";
  json_escape_into b e.name;
  Buffer.add_string b "\",\"attrs\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      json_escape_into b k;
      Buffer.add_string b "\":\"";
      json_escape_into b v;
      Buffer.add_char b '"')
    e.attrs;
  Buffer.add_string b "}}"

let event_to_jsonl e =
  let b = Buffer.create 96 in
  add_jsonl b e;
  Buffer.contents b

let csv_header = "time,node,kind,name,attrs"

let add_csv_field b s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  then begin
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  end
  else Buffer.add_string b s

let add_csv b e =
  Printf.bprintf b "%.6f," e.time;
  add_csv_field b e.node;
  Buffer.add_char b ',';
  Buffer.add_string b (kind_to_string e.kind);
  Buffer.add_char b ',';
  add_csv_field b e.name;
  Buffer.add_char b ',';
  add_csv_field b
    (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) e.attrs))

let event_to_csv e =
  let b = Buffer.create 64 in
  add_csv b e;
  Buffer.contents b

(* --- binary wire format (DESIGN §16) ---

   Stream layout: an 8-byte magic, a varint format version, a snapshot
   of the trace-kind registry (count, then each wire name
   length-prefixed; the snapshot index {e is} the kind id), then
   length-prefixed records.  Each record is a varint payload length
   followed by that many payload bytes, so a reader can validate
   framing and detect truncation without understanding every tag.

   Record payloads start with a tag byte:
   - [0x01] string definition: varint id (must equal the current table
     size), varint byte length, raw bytes.  Node labels, content names
     and attr {e keys} are interned this way — each distinct string
     crosses the wire once.
   - [0x02] event: varint kind id, zigzag-varint delta of the
     nanosecond-quantized timestamp against the previous event, varint
     node string ref, varint name string ref, varint attr count, then
     per attr a varint key ref + varint value length + raw value bytes
     (values are not interned: latency draws and counters rarely
     repeat).

   Timestamps are virtual milliseconds rounded to integer nanoseconds —
   exactly the precision of the [%.6f] JSONL rendering — so the binary
   and text pipelines describe the same trace bit-for-bit.  Deltas may
   be negative (merged per-trial streams restart virtual time); zigzag
   keeps them short. *)

let binary_magic = "ndntrace"

let binary_version = 1

type encoder = {
  ebuf : Buffer.t;
  strings : (string, int) Hashtbl.t;
  mutable next_ref : int;
  mutable prev_ns : int;
}

let encoder_create () =
  {
    ebuf = Buffer.create 65536;
    strings = Hashtbl.create 256;
    next_ref = 0;
    prev_ns = 0;
  }

let encoder_reset enc =
  Buffer.clear enc.ebuf;
  Hashtbl.reset enc.strings;
  enc.next_ref <- 0;
  enc.prev_ns <- 0

let encoder_length enc = Buffer.length enc.ebuf

let encoder_contents enc = Buffer.contents enc.ebuf

let encoder_add_header enc =
  Buffer.add_string enc.ebuf binary_magic;
  Varint.add_uint enc.ebuf binary_version;
  Varint.add_uint enc.ebuf (List.length all_kind_names);
  List.iter
    (fun n ->
      Varint.add_uint enc.ebuf (String.length n);
      Buffer.add_string enc.ebuf n)
    all_kind_names

(* Intern a string, emitting its definition record on first sight.
   Steady state is the [Hashtbl.find] hit — no option boxing. *)
(* ndnlint: hot *)
let intern enc s =
  try Hashtbl.find enc.strings s
  with Not_found ->
    let id = enc.next_ref in
    enc.next_ref <- id + 1;
    Hashtbl.add enc.strings s id;
    let slen = String.length s in
    let payload = 1 + Varint.uint_size id + Varint.uint_size slen + slen in
    Varint.add_uint enc.ebuf payload;
    Buffer.add_char enc.ebuf '\x01';
    Varint.add_uint enc.ebuf id;
    Varint.add_uint enc.ebuf slen;
    Buffer.add_string enc.ebuf s;
    id

(* Measure the attrs' payload bytes, interning keys as a side effect so
   their definition records precede the event record. *)
(* ndnlint: hot *)
let rec attrs_size enc acc l =
  match l with
  | [] -> acc
  | (k, v) :: rest ->
    let kr = intern enc k in
    let vlen = String.length v in
    attrs_size enc (acc + Varint.uint_size kr + Varint.uint_size vlen + vlen) rest

(* ndnlint: hot *)
let rec add_attrs enc l =
  match l with
  | [] -> ()
  | (k, v) :: rest ->
    Varint.add_uint enc.ebuf (Hashtbl.find enc.strings k);
    Varint.add_uint enc.ebuf (String.length v);
    Buffer.add_string enc.ebuf v;
    add_attrs enc rest

(* ndnlint: hot *)
let time_to_ns t = int_of_float (Float.round (t *. 1e6))

(* ndnlint: hot *)
let encode_event enc e =
  let node_ref = intern enc e.node in
  let name_ref = intern enc e.name in
  let ns = time_to_ns e.time in
  let dt = ns - enc.prev_ns in
  let nattrs = List.length e.attrs in
  let kid = kind_id e.kind in
  let attr_bytes = attrs_size enc 0 e.attrs in
  let payload =
    1 + Varint.uint_size kid + Varint.int_size dt
    + Varint.uint_size node_ref + Varint.uint_size name_ref
    + Varint.uint_size nattrs + attr_bytes
  in
  Varint.add_uint enc.ebuf payload;
  Buffer.add_char enc.ebuf '\x02';
  Varint.add_uint enc.ebuf kid;
  Varint.add_int enc.ebuf dt;
  Varint.add_uint enc.ebuf node_ref;
  Varint.add_uint enc.ebuf name_ref;
  Varint.add_uint enc.ebuf nattrs;
  add_attrs enc e.attrs;
  enc.prev_ns <- ns

(* --- tracers --- *)

(* Where a writer's bytes go each time its buffer is drained. *)
type dest = Channel of out_channel | Into of Buffer.t

(* A streaming writer encodes every event as it is emitted into
   [enc.ebuf] — the binary encoder's own buffer, or pending text lines
   (the intern table then stays empty) — and drains it to [dest] at
   64 KiB, so it never holds more than one chunk of the stream. *)
type writer = { wfmt : format; enc : encoder; dest : dest }

type t = {
  on : bool;
  (* Growable buffer; [None] for sink-only tracers and writers. *)
  mutable buf : event array option;
  (* Events buffered — or, for a writer, encoded. *)
  mutable len : int;
  mutable sinks : (event -> unit) list;
  writer : writer option;
}

let disabled = { on = false; buf = None; len = 0; sinks = []; writer = None }

let dummy_event = { time = 0.; node = ""; kind = Engine_step; name = ""; attrs = [] }

let create () = { on = true; buf = Some [||]; len = 0; sinks = []; writer = None }

let with_sink sink =
  { on = true; buf = None; len = 0; sinks = [ sink ]; writer = None }

let enabled t = t.on

let push t buf e =
  let buf =
    if t.len = Array.length buf then begin
      let nb = Array.make (max 64 (2 * t.len)) dummy_event in
      Array.blit buf 0 nb 0 t.len;
      t.buf <- Some nb;
      nb
    end
    else buf
  in
  buf.(t.len) <- e;
  t.len <- t.len + 1

let flush_threshold = 65536

let drain w =
  (match w.dest with
  | Channel oc -> Buffer.output_buffer oc w.enc.ebuf
  | Into b -> Buffer.add_buffer b w.enc.ebuf);
  Buffer.clear w.enc.ebuf

let write_event w e =
  let b = w.enc.ebuf in
  (match w.wfmt with
  | Binary -> encode_event w.enc e
  | Jsonl ->
    add_jsonl b e;
    Buffer.add_char b '\n'
  | Csv ->
    add_csv b e;
    Buffer.add_char b '\n');
  if Buffer.length b >= flush_threshold then drain w

let emit t e =
  if t.on then begin
    (match t.buf with Some buf -> push t buf e | None -> ());
    (match t.writer with
    | Some w ->
      write_event w e;
      t.len <- t.len + 1
    | None -> ());
    match t.sinks with [] -> () | sinks -> List.iter (fun sink -> sink e) sinks
  end

let make_writer wfmt dest =
  let enc = encoder_create () in
  (match wfmt with
  | Binary -> encoder_add_header enc
  | Csv ->
    Buffer.add_string enc.ebuf csv_header;
    Buffer.add_char enc.ebuf '\n'
  | Jsonl -> ());
  {
    on = true;
    buf = None;
    len = 0;
    sinks = [];
    writer = Some { wfmt; enc; dest };
  }

let writer fmt oc = make_writer fmt (Channel oc)

let finish t =
  match t.writer with
  | None -> ()
  | Some w -> (
    drain w;
    match w.dest with Channel oc -> flush oc | Into _ -> ())

let subscribe t sink =
  if not t.on then invalid_arg "Trace.subscribe: tracer is disabled";
  t.sinks <- t.sinks @ [ sink ]

let length t = t.len

let events t =
  match t.buf with
  | None -> [||]
  | Some buf -> Array.sub buf 0 t.len

let clear t =
  (* Only buffers are cleared: [disabled] must never be written (it is
     shared across domains), and a writer's count covers bytes already
     on their way out. *)
  match t.buf with
  | Some _ ->
    t.len <- 0;
    t.buf <- Some [||]
  | None -> ()

let iter t f =
  match t.buf with
  | None -> ()
  | Some buf ->
    for i = 0 to t.len - 1 do
      f buf.(i)
    done

let merge_into ~into t =
  if not into.on then invalid_arg "Trace.merge_into: target tracer is disabled";
  iter t (emit into)

let tally t =
  let counts = Hashtbl.create 32 in
  iter t (fun e ->
      let key = (e.node, e.kind) in
      Hashtbl.replace counts key
        (1 + Option.value (Hashtbl.find_opt counts key) ~default:0));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun ((n1, k1), _) ((n2, k2), _) ->
         match String.compare n1 n2 with
         | 0 -> String.compare (kind_to_string k1) (kind_to_string k2)
         | c -> c)

let events_per_ms t =
  if t.len < 2 then Float.nan
  else
    match t.buf with
    | None -> Float.nan
    | Some buf ->
      let span = buf.(t.len - 1).time -. buf.(0).time in
      if span <= 0. then Float.nan else float_of_int t.len /. span

(* --- exporters: a buffered trace replayed into a writer --- *)

let write fmt oc t =
  let w = writer fmt oc in
  merge_into ~into:w t;
  finish w

let render fmt t =
  let out = Buffer.create 4096 in
  let w = make_writer fmt (Into out) in
  merge_into ~into:w t;
  finish w;
  Buffer.contents out
