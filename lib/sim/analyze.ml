(* Fold-as-you-go trace analyzers (DESIGN §16).

   One accumulator ingests events one at a time — from a live tracer,
   a binary stream or a JSONL stream — and produces the summary the
   old jq pipelines computed from materialized traces: per-kind
   counts, per-tier cache hit rates, the timing-attack confusion
   matrix, and link-delay Stats/Histogram.

   Accumulators obey the mergeable-accumulator law [Sim.Parallel]
   tests: feeding a stream into one accumulator and feeding disjoint
   splits into several then merging agree (exactly for every counter;
   within float tolerance for the Welford statistics, whose parallel
   merge reassociates additions).  Per-shard or per-trial partial
   folds therefore combine deterministically.

   Times are nanosecond-quantized through [Trace.time_to_ns] — the
   binary wire precision and the JSONL [%.6f] precision — so both
   pipelines yield byte-identical summaries; summaries report them in
   microseconds, rounded to nearest. *)

type node_acc = { mutable hits : int; mutable misses : int }

type probe = { warm : bool; mutable hit_seen : bool }

type t = {
  mutable n_events : int;
  mutable first_ns : int;
  mutable last_ns : int;
  kind_counts : int array;
  nodes : (string, node_acc) Hashtbl.t;
  probes : (string, probe) Hashtbl.t;
  names : (string, unit) Hashtbl.t;
  delay : Stats.t;
  delay_hist : Histogram.t;
}

(* Fixed histogram layout so partial folds always merge; link latency
   draws beyond [hist_hi] ms clamp into the last bin. *)
let hist_lo = 0.

let hist_hi = 100.

let hist_bins = 20

let create () =
  {
    n_events = 0;
    first_ns = max_int;
    last_ns = min_int;
    kind_counts = Array.make (List.length Trace.all_kinds) 0;
    nodes = Hashtbl.create 64;
    probes = Hashtbl.create 64;
    names = Hashtbl.create 256;
    delay = Stats.create ();
    delay_hist = Histogram.create ~lo:hist_lo ~hi:hist_hi ~bins:hist_bins;
  }

let has_sub s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i =
    if i + lsub > ls then false
    else if String.sub s i lsub = sub then true
    else go (i + 1)
  in
  go 0

(* The timing experiment probes names under "/warm/" (cached by a user
   fetch before the adversary's probe) and "/cold/" (probed blind). *)
let classify name =
  if has_sub name "/warm/" then Some true
  else if has_sub name "/cold/" then Some false
  else None

(* Generated ISP topologies label routers "<prefix>-t<tier>-n<i>";
   anything else ("U", "R", "engine", …) is untiered. *)
let tier_of_node label =
  let n = String.length label in
  let digit c = c >= '0' && c <= '9' in
  let rec find i =
    if i + 2 >= n then None
    else if label.[i] = '-' && label.[i + 1] = 't' && digit label.[i + 2] then begin
      let j = ref (i + 2) in
      while !j < n && digit label.[!j] do
        incr j
      done;
      if !j < n && label.[!j] = '-' then
        Some (int_of_string (String.sub label (i + 2) (!j - i - 2)))
      else find (i + 1)
    end
    else find (i + 1)
  in
  find 0

(* Deterministic hashtable traversal: every consumer below is either
   order-insensitive (commutative sums) or sorts anyway; going through
   one sorted view keeps hash order out of every output. *)
let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let node_acc t label =
  match Hashtbl.find_opt t.nodes label with
  | Some acc -> acc
  | None ->
    let acc = { hits = 0; misses = 0 } in
    Hashtbl.add t.nodes label acc;
    acc

let feed t (e : Trace.event) =
  t.n_events <- t.n_events + 1;
  let ns = Trace.time_to_ns e.time in
  if ns < t.first_ns then t.first_ns <- ns;
  if ns > t.last_ns then t.last_ns <- ns;
  let kid = Trace.kind_id e.kind in
  t.kind_counts.(kid) <- t.kind_counts.(kid) + 1;
  ignore (node_acc t e.node);
  if e.name <> "" then begin
    if not (Hashtbl.mem t.names e.name) then Hashtbl.add t.names e.name ();
    match classify e.name with
    | Some warm ->
      if not (Hashtbl.mem t.probes e.name) then
        Hashtbl.add t.probes e.name { warm; hit_seen = false }
    | None -> ()
  end;
  match e.kind with
  | Cs_hit ->
    let acc = node_acc t e.node in
    acc.hits <- acc.hits + 1;
    (match Hashtbl.find_opt t.probes e.name with
    | Some p -> p.hit_seen <- true
    | None -> ())
  | Cs_miss ->
    let acc = node_acc t e.node in
    acc.misses <- acc.misses + 1
  | Link_transmit -> (
    match List.assoc_opt "delay_ms" e.attrs with
    | Some v -> (
      match float_of_string_opt v with
      | Some d ->
        Stats.add t.delay d;
        Histogram.add t.delay_hist d
      | None -> ())
    | None -> ())
  | _ -> ()

let merge a b =
  let t = create () in
  t.n_events <- a.n_events + b.n_events;
  t.first_ns <- (if a.first_ns < b.first_ns then a.first_ns else b.first_ns);
  t.last_ns <- (if a.last_ns > b.last_ns then a.last_ns else b.last_ns);
  Array.iteri
    (fun i _ -> t.kind_counts.(i) <- a.kind_counts.(i) + b.kind_counts.(i))
    t.kind_counts;
  let add_nodes src =
    List.iter
      (fun (label, (acc : node_acc)) ->
        let into = node_acc t label in
        into.hits <- into.hits + acc.hits;
        into.misses <- into.misses + acc.misses)
      (sorted_bindings src.nodes)
  in
  add_nodes a;
  add_nodes b;
  let add_probes src =
    List.iter
      (fun (name, (p : probe)) ->
        match Hashtbl.find_opt t.probes name with
        | Some into -> if p.hit_seen then into.hit_seen <- true
        | None -> Hashtbl.add t.probes name { warm = p.warm; hit_seen = p.hit_seen })
      (sorted_bindings src.probes)
  in
  add_probes a;
  add_probes b;
  let add_names src =
    List.iter
      (fun (name, ()) ->
        if not (Hashtbl.mem t.names name) then Hashtbl.add t.names name ())
      (sorted_bindings src.names)
  in
  add_names a;
  add_names b;
  let delay = Stats.merge a.delay b.delay in
  Histogram.merge_into ~into:t.delay_hist a.delay_hist;
  Histogram.merge_into ~into:t.delay_hist b.delay_hist;
  {
    t with
    delay;
  }

(* --- summaries --- *)

let events t = t.n_events

let kind_count t k = t.kind_counts.(Trace.kind_id k)

let span_ns t = if t.n_events = 0 then 0 else t.last_ns - t.first_ns

(* Nanoseconds to microseconds, rounded half away from zero. *)
let us_of_ns ns = if ns >= 0 then (ns + 500) / 1000 else -((500 - ns) / 1000)

let span_us t = us_of_ns (span_ns t)

let first_us t = if t.n_events = 0 then 0 else us_of_ns t.first_ns

let last_us t = if t.n_events = 0 then 0 else us_of_ns t.last_ns

let distinct_nodes t = Hashtbl.length t.nodes

let distinct_names t = Hashtbl.length t.names

let delay t = t.delay

let delay_hist t = t.delay_hist

type attack = {
  warm : int;
  cold : int;
  tp : int;
  tn : int;
  tpr : float;
  tnr : float;
  accuracy : float;
}

let attack t =
  let warm = ref 0 and cold = ref 0 and tp = ref 0 and tn = ref 0 in
  List.iter
    (fun (_, (p : probe)) ->
      if p.warm then begin
        incr warm;
        if p.hit_seen then incr tp
      end
      else begin
        incr cold;
        if not p.hit_seen then incr tn
      end)
    (sorted_bindings t.probes);
  if !warm = 0 && !cold = 0 then None
  else begin
    let tpr = if !warm = 0 then Float.nan else float_of_int !tp /. float_of_int !warm in
    let tnr = if !cold = 0 then Float.nan else float_of_int !tn /. float_of_int !cold in
    let accuracy =
      if !warm = 0 then tnr else if !cold = 0 then tpr else (tpr +. tnr) /. 2.
    in
    Some { warm = !warm; cold = !cold; tp = !tp; tn = !tn; tpr; tnr; accuracy }
  end

type tier_row = {
  tier : int option;  (** [None] = untiered nodes. *)
  routers : int;
  hits : int;
  misses : int;
}

let tiers t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (label, (acc : node_acc)) ->
      let key = tier_of_node label in
      let row =
        match Hashtbl.find_opt table key with
        | Some r -> r
        | None ->
          let r = { tier = key; routers = 0; hits = 0; misses = 0 } in
          Hashtbl.add table key r;
          r
      in
      Hashtbl.replace table key
        {
          row with
          routers = row.routers + 1;
          hits = row.hits + acc.hits;
          misses = row.misses + acc.misses;
        })
    (sorted_bindings t.nodes);
  Hashtbl.fold (fun _ row acc -> row :: acc) table []
  |> List.sort (fun a b ->
         match (a.tier, b.tier) with
         | Some x, Some y -> Int.compare x y
         | Some _, None -> -1
         | None, Some _ -> 1
         | None, None -> 0)

let hit_rate ~hits ~misses =
  let total = hits + misses in
  if total = 0 then Float.nan else float_of_int hits /. float_of_int total

(* --- rendering --- *)

(* %.17g round-trips doubles exactly, so equal summaries are equal
   bytes — the bit-for-bit contract between the binary and JSONL
   analyzer pipelines. *)
let jfloat x = if Float.is_nan x then "null" else Printf.sprintf "%.17g" x

let tier_label = function None -> "untiered" | Some k -> string_of_int k

let render_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"events\": %d,\n" t.n_events);
  Buffer.add_string b (Printf.sprintf "  \"span_us\": %d,\n" (span_us t));
  Buffer.add_string b (Printf.sprintf "  \"first_us\": %d,\n" (first_us t));
  Buffer.add_string b (Printf.sprintf "  \"last_us\": %d,\n" (last_us t));
  Buffer.add_string b (Printf.sprintf "  \"nodes\": %d,\n" (distinct_nodes t));
  Buffer.add_string b (Printf.sprintf "  \"names\": %d,\n" (distinct_names t));
  Buffer.add_string b "  \"kinds\": {";
  let first = ref true in
  List.iter
    (fun k ->
      let c = kind_count t k in
      if c > 0 then begin
        if not !first then Buffer.add_string b ", ";
        first := false;
        Buffer.add_string b (Printf.sprintf "\"%s\": %d" (Trace.kind_to_string k) c)
      end)
    Trace.all_kinds;
  Buffer.add_string b "},\n";
  (match attack t with
  | None -> Buffer.add_string b "  \"attack\": null,\n"
  | Some a ->
    Buffer.add_string b
      (Printf.sprintf
         "  \"attack\": {\"warm\": %d, \"cold\": %d, \"tp\": %d, \"tn\": %d, \
          \"tpr\": %s, \"tnr\": %s, \"accuracy\": %s},\n"
         a.warm a.cold a.tp a.tn (jfloat a.tpr) (jfloat a.tnr) (jfloat a.accuracy)));
  Buffer.add_string b "  \"tiers\": [";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"tier\": \"%s\", \"routers\": %d, \"hits\": %d, \"misses\": %d, \
            \"hit_rate\": %s}"
           (tier_label row.tier) row.routers row.hits row.misses
           (jfloat (hit_rate ~hits:row.hits ~misses:row.misses))))
    (tiers t);
  Buffer.add_string b "],\n";
  if Stats.count t.delay = 0 then Buffer.add_string b "  \"delay_ms\": null\n"
  else begin
    Buffer.add_string b
      (Printf.sprintf
         "  \"delay_ms\": {\"count\": %d, \"mean\": %s, \"stddev\": %s, \
          \"min\": %s, \"max\": %s,\n"
         (Stats.count t.delay)
         (jfloat (Stats.mean t.delay))
         (jfloat (Stats.stddev t.delay))
         (jfloat (Stats.min t.delay))
         (jfloat (Stats.max t.delay)));
    Buffer.add_string b
      (Printf.sprintf "    \"hist\": {\"lo\": %s, \"hi\": %s, \"bins\": %d, \"counts\": ["
         (jfloat hist_lo) (jfloat hist_hi) hist_bins);
    Array.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (string_of_int c))
      (Histogram.counts t.delay_hist);
    Buffer.add_string b "]}}\n"
  end;
  Buffer.add_string b "}\n";
  Buffer.contents b

let render_text t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "events        %d\n" t.n_events);
  Buffer.add_string b
    (Printf.sprintf "span          %.6f ms\n" (float_of_int (span_ns t) /. 1e6));
  Buffer.add_string b
    (Printf.sprintf "nodes/names   %d / %d\n" (distinct_nodes t) (distinct_names t));
  Buffer.add_string b "kinds:\n";
  List.iter
    (fun k ->
      let c = kind_count t k in
      if c > 0 then
        Buffer.add_string b
          (Printf.sprintf "  %-20s %d\n" (Trace.kind_to_string k) c))
    Trace.all_kinds;
  (match attack t with
  | None -> ()
  | Some a ->
    Buffer.add_string b
      (Printf.sprintf
         "attack:       warm %d cold %d  tp %d tn %d  tpr %.4f tnr %.4f  \
          accuracy %.4f\n"
         a.warm a.cold a.tp a.tn a.tpr a.tnr a.accuracy));
  List.iter
    (fun row ->
      Buffer.add_string b
        (Printf.sprintf "tier %-9s %d routers  hits %d  misses %d  hit_rate %.4f\n"
           (tier_label row.tier) row.routers row.hits row.misses
           (hit_rate ~hits:row.hits ~misses:row.misses)))
    (tiers t);
  if Stats.count t.delay > 0 then
    Buffer.add_string b
      (Printf.sprintf "delay_ms:     n %d  mean %.4f  stddev %.4f  min %.4f  max %.4f\n"
         (Stats.count t.delay)
         (Stats.mean t.delay)
         (Stats.stddev t.delay)
         (Stats.min t.delay)
         (Stats.max t.delay));
  Buffer.contents b

let of_source src =
  let t = create () in
  match Trace_reader.fold_auto src ~init:() ~f:(fun () e -> feed t e) with
  | Ok () -> Ok t
  | Error e -> Error e
