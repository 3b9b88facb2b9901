(* perfbench: the in-process half of the repository benchmark.

   run.py drives this executable; every invocation does one thing and
   prints one JSON object on its last stdout line:

     perfbench.exe tree-flood SEED [--spans]   one round of tree-flood
     perfbench.exe fig5-replay SEED [--spans]  one round of fig5-replay
     perfbench.exe calibrate SHAPE             isolated ns/op per layer
     perfbench.exe gc-pauses DIR PID           GC pause time of a
                                               finished process, read
                                               from its runtime-events
                                               ring
     perfbench.exe reference                   the host-speed reference

   A round builds its inputs from SEED alone, times its phases around
   public library calls, and checks the program's outputs against
   oracles computed here, apart from the library.  With --spans it also
   reports the finer spans it recorded (name, start, end, parent); run.py
   only turns that on in the per-layer run. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* --- JSON output --- *)

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

let int_field k v = (k, string_of_int v)
let float_field k v = (k, num v)

let checks_field checks =
  ("checks", obj (List.map (fun (k, ok) -> (k, string_of_bool ok)) checks))

(* --- spans: kept in memory, printed with the round's result --- *)

type span = { sname : string; sparent : string; t_start : float; t_end : float }

let spans : span list ref = ref []
let spans_on = ref false

let timed ?(parent = "round") name f =
  let t0 = now_s () in
  let r = f () in
  if !spans_on then
    spans := { sname = name; sparent = parent; t_start = t0; t_end = now_s () } :: !spans;
  r

let spans_field () =
  ( "spans",
    "["
    ^ String.concat ", "
        (List.rev_map
           (fun s ->
             obj
               [
                 ("name", Printf.sprintf "%S" s.sname);
                 ("parent", Printf.sprintf "%S" s.sparent);
                 float_field "start_s" s.t_start;
                 float_field "end_s" s.t_end;
               ])
           !spans)
    ^ "]" )

(* --- GC counters of this process around a phase --- *)

let gc_delta f =
  let a = Gc.quick_stat () in
  let r = f () in
  let b = Gc.quick_stat () in
  ( r,
    [
      float_field "gc_minor_words" (b.Gc.minor_words -. a.Gc.minor_words);
      float_field "gc_promoted_words" (b.Gc.promoted_words -. a.Gc.promoted_words);
      int_field "gc_major_collections"
        (b.Gc.major_collections - a.Gc.major_collections);
    ] )

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* ------------------------------------------------------------------ *)
(* tree-flood: a complete arity-10, 5-tier ISP tree (11,111 routers),
   one aggregate consumer per access router standing for 100 users
   (1M users in all), finite drop-new PITs and NACKs on every node,
   bounded queues on one access-to-core path, and a flooding host
   behind that access router injecting unsatisfiable interests well
   above the drop-new saturation rate (capacity / PIT lifetime). *)

module TS = Ndn.Topology_spec

let arity = 10
let tiers = 5

let tree_spec =
  Printf.sprintf
    "generate tree name=tf arity=%d cs=8192,4096,1024,512,256 \
     latency=const:8,const:4,const:2,const:1,const:0.5 payload=16 seed=7"
    arity

let users_per_edge = 100
let req_per_user_per_hour = 6.
let horizon_ms = 6_000.
let pit_capacity = 1024
let flood_rate_per_ms = 2.
let queue_rate_mbps = 4.
let queue_depth = 32

let rec pow a b = if b = 0 then 1 else a * pow a (b - 1)

(* Closed form of the complete tree in breadth-first numbering: tier t
   holds ids [tier_offset t, tier_offset (t+1)), the parent of id i > 0
   is (i - 1) / arity. *)
let tier_offset t = (pow arity t - 1) / (arity - 1)
let routers = tier_offset tiers
let edge_first = tier_offset (tiers - 1)
let edge_count = pow arity (tiers - 1)

let tier_of i =
  let rec go t = if i < tier_offset (t + 1) then t else go (t + 1) in
  go 0

let label i = Printf.sprintf "tf-t%d-n%d" (tier_of i) i

let tree_round seed =
  let spec = ok_or_fail "parse" (TS.parse_spec tree_spec) in
  let t0 = now_s () in
  let topo = timed "topology.build" (fun () -> ok_or_fail "build" (TS.build ~seed spec)) in
  let t1 = now_s () in
  let net = topo.TS.network in
  let node_of i =
    match Ndn.Network.node net (label i) with
    | Some n -> n
    | None -> failwith ("missing router " ^ label i)
  in
  let prefix = Ndn.Name.of_string "/tf" in
  let boom = Ndn.Name.append prefix "boom" in
  let access = edge_first + (edge_count / 2) in
  (* The flooded path, core router first. *)
  let rec ancestor i k = if k = 0 then i else ancestor ((i - 1) / arity) (k - 1) in
  let path = List.init tiers (fun t -> ancestor access (tiers - 1 - t)) in
  let aggregates, flood =
    timed "workload.generate" (fun () ->
        timed ~parent:"workload.generate" "plane.protect" (fun () ->
            List.iter (fun (_, n) -> Ndn.Node.set_nacks_enabled n true) (Ndn.Network.nodes net);
            for i = 0 to routers - 1 do
              Ndn.Node.set_pit_limits (node_of i) ~capacity:pit_capacity
                ~admission:Ndn.Pit.Drop_new ()
            done;
            let rec queue = function
              | a :: (b :: _ as rest) ->
                ok_or_fail "set_link_queue"
                  (Ndn.Network.set_link_queue net ~a:(label a) ~b:(label b)
                     ~rate_mbps:queue_rate_mbps ~depth:queue_depth ());
                queue rest
              | _ -> ()
            in
            queue path);
        let producer =
          match Ndn.Network.node net "tf-P" with
          | Some n -> n
          | None -> failwith "missing producer tf-P"
        in
        Ndn.Node.add_producer producer ~prefix:boom (fun _ -> None);
        let config =
          {
            Workload.Aggregate.default with
            users = users_per_edge;
            req_per_user_per_hour;
            catalog = 10_000;
            zipf_s = 0.85;
            diurnal_amplitude = 0.5;
            diurnal_period_ms = horizon_ms;
            max_retries = 1;
          }
        in
        let master = Sim.Rng.create seed in
        let aggregates =
          timed ~parent:"workload.generate" "aggregate.attach" (fun () ->
              List.init edge_count (fun j ->
                  Workload.Aggregate.attach config ~node:(node_of (edge_first + j))
                    ~prefix ~rng:(Sim.Rng.split master) ~until:horizon_ms ()))
        in
        let flooder = Ndn.Network.add_node net ~cs_capacity:0 ~caching:false "tf-flood" in
        let face, _ =
          Ndn.Network.connect net ~latency:(Sim.Latency.Constant 0.25) flooder
            (node_of access)
        in
        Ndn.Network.route net flooder ~prefix ~via:face;
        Ndn.Node.set_nacks_enabled flooder true;
        let flood =
          timed ~parent:"workload.generate" "flood.attach" (fun () ->
              Workload.Flood.attach
                {
                  Workload.Flood.rate_per_ms = flood_rate_per_ms;
                  scope = None;
                  timeout_ms = Some 2000.;
                }
                ~node:flooder ~prefix:boom ~rng:(Sim.Rng.split master)
                ~until:horizon_ms ())
        in
        (aggregates, flood))
  in
  let t2 = now_s () in
  let (), gc = gc_delta (fun () -> timed "network.run" (fun () -> Ndn.Network.run net)) in
  let t3 = now_s () in
  let sum f = List.fold_left (fun acc a -> acc + f a) 0 aggregates in
  let agg_issued = sum Workload.Aggregate.requests_issued in
  let agg_responses = sum Workload.Aggregate.responses in
  let agg_timeouts = sum Workload.Aggregate.timeouts in
  let nodes = List.map snd (Ndn.Network.nodes net) in
  let cs = List.map (fun n -> Ndn.Content_store.counters (Ndn.Node.content_store n)) nodes in
  let nc = List.map Ndn.Node.counters nodes in
  let total f l = List.fold_left (fun acc c -> acc + f c) 0 l in
  let cs_lookups = total (fun c -> c.Ndn.Content_store.lookups) cs in
  let cs_hits = total (fun c -> c.Ndn.Content_store.hits) cs in
  let pit_rejections = total (fun n -> Ndn.Pit.rejections (Ndn.Node.pit n)) nodes in
  let pit_evictions = total (fun n -> Ndn.Pit.evictions (Ndn.Node.pit n)) nodes in
  let path_rejections =
    List.fold_left (fun acc i -> acc + Ndn.Pit.rejections (Ndn.Node.pit (node_of i))) 0 path
  in
  let producer_data =
    match Ndn.Network.node net "tf-P" with
    | Some p -> (Ndn.Node.counters p).Ndn.Node.data_sent
    | None -> 0
  in
  let flood_issued = Workload.Flood.interests_issued flood in
  let flood_nacked = Workload.Flood.nacks_received flood in
  let flood_timeouts = Workload.Flood.timeouts flood in
  (* Oracles. *)
  let all_routers_present =
    List.for_all (fun i -> Ndn.Network.node net (label i) <> None) (List.init routers Fun.id)
  in
  let tree_links_present =
    List.for_all
      (fun i ->
        Result.is_ok
          (Ndn.Network.clear_link_queue net ~a:(label i) ~b:(label ((i - 1) / arity)) ()))
      (List.init (routers - 1) (fun i -> i + 1))
    && Result.is_ok (Ndn.Network.clear_link_queue net ~a:"tf-P" ~b:(label 0) ())
  in
  let expected = float_of_int (users_per_edge * edge_count) *. req_per_user_per_hour
                 /. 3.6e6 *. horizon_ms in
  let poisson_band = Float.abs (float_of_int agg_issued -. expected) <= 6. *. sqrt expected in
  let cs_consistent =
    List.for_all2
      (fun n c ->
        let store = Ndn.Node.content_store n in
        c.Ndn.Content_store.hits + c.Ndn.Content_store.misses = c.Ndn.Content_store.lookups
        && (Ndn.Content_store.capacity store <= 0
           || Ndn.Content_store.size store <= Ndn.Content_store.capacity store))
      nodes cs
  in
  let engine = Ndn.Network.engine net in
  let checks =
    [
      ("router_count", List.length nodes = routers + 2 && all_routers_present);
      ("tree_links", tree_links_present);
      ("requests_in_poisson_band", poisson_band);
      ("aggregate_outcomes", agg_issued = agg_responses + agg_timeouts);
      ("flood_outcomes", flood_issued = flood_nacked + flood_timeouts);
      ("engine_drained", Sim.Engine.pending engine = 0 && not (Sim.Engine.has_queued engine));
      ("cs_counters", cs_consistent);
      ("flooded_path_rejects", path_rejections > 0);
    ]
  in
  obj
    ([
       float_field "build_s" (t1 -. t0);
       float_field "generate_s" (t2 -. t1);
       float_field "run_s" (t3 -. t2);
       int_field "requests" (agg_issued + flood_issued);
       int_field "expected_aggregate_requests" (int_of_float expected);
       int_field "engine.events" (Ndn.Network.events_processed net);
       int_field "cs.lookups" cs_lookups;
       int_field "cs.hits" cs_hits;
       int_field "cs.insertions" (total (fun c -> c.Ndn.Content_store.insertions) cs);
       int_field "cs.evictions" (total (fun c -> c.Ndn.Content_store.evictions) cs);
       int_field "node.interests_received" (total (fun c -> c.Ndn.Node.interests_received) nc);
       int_field "node.cache_responses" (total (fun c -> c.Ndn.Node.cache_responses) nc);
       int_field "node.interests_forwarded" (total (fun c -> c.Ndn.Node.interests_forwarded) nc);
       int_field "node.interests_collapsed" (total (fun c -> c.Ndn.Node.interests_collapsed) nc);
       int_field "node.nacks_sent" (total (fun c -> c.Ndn.Node.nacks_sent) nc);
       int_field "pit.rejections" pit_rejections;
       int_field "pit.evictions" pit_evictions;
       int_field "flood.issued" flood_issued;
       int_field "flood.nacked" flood_nacked;
       int_field "producer.data" producer_data;
       checks_field checks;
     ]
    @ gc
    @ if !spans_on then [ spans_field () ] else [])

(* ------------------------------------------------------------------ *)
(* fig5-replay: the paper-like synthetic IRCache trace replayed through
   an 8000-entry LRU Content Store under Exponential-Random-Cache
   (k = 5, eps = 0.005, delta = 0.05) with 20% private contents. *)

let fig5_requests = 100_000
let fig5_capacity = 8000

let exponential_kdist () =
  match Core.Kdist.exponential_for ~k:5 ~eps:0.005 ~delta:0.05 with
  | Some kd -> kd
  | None -> failwith "Exponential-Random-Cache (5, 0.005, 0.05) infeasible"

(* The oracle: an LRU cache over content ids, written here from scratch
   (slots in a doubly linked recency list), returning (hits,
   evictions) for the request sequence. *)
let lru_oracle trace ~capacity =
  let slot_of = Hashtbl.create (2 * capacity) in
  let key = Array.make capacity 0 in
  let prev = Array.make capacity (-1) and next = Array.make capacity (-1) in
  let head = ref (-1) and tail = ref (-1) and used = ref 0 in
  let hits = ref 0 and evictions = ref 0 in
  let unlink s =
    if prev.(s) >= 0 then next.(prev.(s)) <- next.(s) else head := next.(s);
    if next.(s) >= 0 then prev.(next.(s)) <- prev.(s) else tail := prev.(s)
  in
  let push_front s =
    prev.(s) <- -1;
    next.(s) <- !head;
    if !head >= 0 then prev.(!head) <- s;
    head := s;
    if !tail < 0 then tail := s
  in
  Workload.Trace.iter trace ~f:(fun r ->
      let c = r.Workload.Trace.content in
      match Hashtbl.find_opt slot_of c with
      | Some s ->
        incr hits;
        unlink s;
        push_front s
      | None ->
        let s =
          if !used < capacity then begin
            let s = !used in
            incr used;
            s
          end
          else begin
            let s = !tail in
            unlink s;
            Hashtbl.remove slot_of key.(s);
            incr evictions;
            s
          end
        in
        key.(s) <- c;
        Hashtbl.replace slot_of c s;
        push_front s);
  (!hits, !evictions)

let fig5_round seed =
  let t0 = now_s () in
  let trace =
    timed "workload.generate" (fun () ->
        Workload.Ircache.generate
          { Workload.Ircache.default with requests = fig5_requests; seed })
  in
  let t1 = now_s () in
  let config =
    {
      Workload.Replay.default_config with
      cache_capacity = fig5_capacity;
      eviction = Ndn.Eviction.Lru;
      policy = Core.Policy.Random_cache (exponential_kdist ());
      private_mode = Workload.Replay.Per_content 0.2;
      seed;
    }
  in
  let o, gc = gc_delta (fun () -> timed "replay.run" (fun () -> Workload.Replay.replay trace config)) in
  let t2 = now_s () in
  let oracle_hits, oracle_evictions =
    timed "oracle.lru" (fun () -> lru_oracle trace ~capacity:fig5_capacity)
  in
  let r = o.Workload.Replay.real_hits in
  let checks =
    [
      ("requests", o.Workload.Replay.requests = fig5_requests);
      ("lru_hits_match_oracle", r = oracle_hits);
      ("lru_evictions_match_oracle", o.Workload.Replay.evictions = oracle_evictions);
      ("observable_plus_hidden_is_real",
       o.Workload.Replay.observable_hits + o.Workload.Replay.hidden_hits = r);
      ("hidden_hits_positive", o.Workload.Replay.hidden_hits > 0);
    ]
  in
  obj
    ([
       float_field "generate_s" (t1 -. t0);
       float_field "run_s" (t2 -. t1);
       int_field "requests" o.Workload.Replay.requests;
       int_field "cs.lookups" o.Workload.Replay.requests;
       int_field "cs.hits" r;
       int_field "cs.insertions" (o.Workload.Replay.requests - r);
       int_field "cs.evictions" o.Workload.Replay.evictions;
       int_field "rc.hidden_hits" o.Workload.Replay.hidden_hits;
       int_field "rc.observable_hits" o.Workload.Replay.observable_hits;
       int_field "oracle.hits" oracle_hits;
       int_field "oracle.evictions" oracle_evictions;
       int_field "distinct_contents" o.Workload.Replay.distinct_contents;
       checks_field checks;
     ]
    @ gc
    @ if !spans_on then [ spans_field () ] else [])

(* ------------------------------------------------------------------ *)
(* calibrate: isolated ns/op of each layer's public function, on inputs
   shaped like a workload's (heap depth, CS capacity and hit mix, name
   depth, payload size).  Each figure is the median of five batches. *)

type shape = {
  depth : int;  (** Pending events in the engine's queue. *)
  cs_capacity : int;
  cs_hit_fraction : float;
  payload : int;
  name_prefix : string;
}

let shape_of = function
  | "tree" ->
    { depth = edge_count; cs_capacity = 256; cs_hit_fraction = 0.3; payload = 16;
      name_prefix = "/tf" }
  | "fig5" ->
    { depth = 16; cs_capacity = fig5_capacity; cs_hit_fraction = 0.3; payload = 0;
      name_prefix = "/trace" }
  | "lan" ->
    { depth = 16; cs_capacity = 20_000; cs_hit_fraction = 0.5; payload = 1024;
      name_prefix = "/prod/run0/warm" }
  | s -> failwith ("unknown shape " ^ s)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* [prepare ()] returns the batch to time; it runs outside the clock. *)
let ns_per_op ~ops prepare =
  median
    (List.init 5 (fun _ ->
         let batch = prepare () in
         let t0 = Monotonic_clock.now () in
         batch ();
         Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. float_of_int ops))

let calibrate shape_name =
  let s = shape_of shape_name in
  let prefix = Ndn.Name.of_string s.name_prefix in
  let names n = Array.init n (fun i -> Ndn.Name.append prefix (string_of_int i)) in
  let payload = String.make s.payload 'x' in
  let data_of name = Ndn.Data.create ~producer:"pb" ~key:"pb-key" ~payload name in
  let engine_ns =
    let ops = 200_000 in
    ns_per_op ~ops (fun () ->
        let e = Sim.Engine.create () in
        let k = ref 0 in
        let rec fire () =
          incr k;
          ignore (Sim.Engine.schedule e ~delay:(float_of_int ((!k * 7919) mod 997)) fire)
        in
        for i = 1 to s.depth do
          ignore (Sim.Engine.schedule e ~delay:(float_of_int i) fire)
        done;
        fun () -> Sim.Engine.run ~max_events:ops e)
  in
  let cs_n = s.cs_capacity in
  let resident = names cs_n in
  let resident_data = Array.map data_of resident in
  let fresh_n = 20_000 in
  let fresh_data = Array.map data_of (Array.init fresh_n (fun i ->
      Ndn.Name.append prefix ("f" ^ string_of_int i))) in
  let lookup_names =
    let span = int_of_float (float_of_int cs_n /. s.cs_hit_fraction) in
    Array.init fresh_n (fun i -> Ndn.Name.append prefix (string_of_int ((i * 7919) mod span)))
  in
  let full_store () =
    let cs = Ndn.Content_store.create ~capacity:cs_n () in
    Array.iter (fun d -> Ndn.Content_store.insert cs ~now:0. d ()) resident_data;
    cs
  in
  let cs_lookup_ns =
    ns_per_op ~ops:fresh_n (fun () ->
        let cs = full_store () in
        fun () ->
          Array.iter
            (fun n -> ignore (Ndn.Content_store.lookup cs ~now:1. ~exact:true n))
            lookup_names)
  in
  let cs_insert_ns =
    ns_per_op ~ops:fresh_n (fun () ->
        let cs = full_store () in
        fun () -> Array.iter (fun d -> Ndn.Content_store.insert cs ~now:1. d ()) fresh_data)
  in
  let pit_ns =
    let live = 64 in
    let pit_names = names fresh_n in
    ns_per_op ~ops:fresh_n (fun () ->
        let pit = Ndn.Pit.create ~capacity:pit_capacity () in
        fun () ->
          Array.iteri
            (fun i n ->
              ignore (Ndn.Pit.insert pit ~now:0. ~face:1 ~nonce:(Int64.of_int i) n);
              if i >= live then ignore (Ndn.Pit.satisfy pit pit_names.(i - live)))
            pit_names)
  in
  let fib_ns =
    let fib = Ndn.Fib.create () in
    Ndn.Fib.add_route fib ~prefix ~face:1;
    Ndn.Fib.add_route fib ~prefix:(Ndn.Name.of_string "/other") ~face:2;
    ns_per_op ~ops:fresh_n (fun () ->
        fun () -> Array.iter (fun n -> ignore (Ndn.Fib.next_hop fib n)) lookup_names)
  in
  let name_ns =
    let ops = 100_000 in
    ns_per_op ~ops (fun () ->
        fun () ->
          for i = 1 to ops do
            ignore (Ndn.Name.append prefix (string_of_int i))
          done)
  in
  let crypto_ns =
    let ops = 2000 in
    ns_per_op ~ops (fun () ->
        fun () ->
          for i = 0 to ops - 1 do
            ignore (data_of lookup_names.(i))
          done)
  in
  let random_cache_ns =
    let ops = fresh_n in
    ns_per_op ~ops (fun () ->
        let policy =
          Core.Policy.create ~rng:(Sim.Rng.create 5)
            (Core.Policy.Random_cache (exponential_kdist ()))
        in
        fun () ->
          Array.iteri
            (fun i n ->
              ignore
                (Core.Policy.on_request policy ~name:n ~is_private:(i mod 5 = 0)
                   ~cached:(i mod 3 = 0)))
            lookup_names)
  in
  obj
    [
      ("shape", Printf.sprintf "%S" shape_name);
      float_field "engine_ns" engine_ns;
      float_field "cs_lookup_ns" cs_lookup_ns;
      float_field "cs_insert_ns" cs_insert_ns;
      float_field "pit_ns" pit_ns;
      float_field "fib_ns" fib_ns;
      float_field "name_ns" name_ns;
      float_field "crypto_ns" crypto_ns;
      float_field "random_cache_ns" random_cache_ns;
    ]

(* ------------------------------------------------------------------ *)
(* gc-pauses: total time a finished process spent in minor
   collections, major slices and explicit collections, read from the
   ring it left with OCAML_RUNTIME_EVENTS_PRESERVE set.  Only these
   phases are matched begin-to-end (per domain, outermost first), so a
   phase that nests inside another is not counted twice. *)

let gc_pauses dir pid =
  let cursor = Runtime_events.create_cursor (Some (dir, pid)) in
  let depth = Hashtbl.create 4 and start = Hashtbl.create 4 in
  let total_ns = ref 0L and pauses = ref 0 and lost = ref 0 in
  let counted = function
    | Runtime_events.EV_MINOR | EV_MAJOR_SLICE | EV_EXPLICIT_GC_MINOR
    | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_COMPACT
    | EV_EXPLICIT_GC_MAJOR_SLICE ->
      true
    | _ -> false
  in
  let runtime_begin dom ts phase =
    if counted phase then begin
      let d = Option.value ~default:0 (Hashtbl.find_opt depth dom) in
      if d = 0 then Hashtbl.replace start dom (Runtime_events.Timestamp.to_int64 ts);
      Hashtbl.replace depth dom (d + 1)
    end
  in
  let runtime_end dom ts phase =
    if counted phase then
      match Hashtbl.find_opt depth dom with
      | Some 1 ->
        Hashtbl.replace depth dom 0;
        let t0 = Hashtbl.find start dom in
        total_ns := Int64.add !total_ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0);
        incr pauses
      | Some d when d > 1 -> Hashtbl.replace depth dom (d - 1)
      | _ -> ()
  in
  let lost_events _ n = lost := !lost + n in
  let cb = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events () in
  let rec drain () = if Runtime_events.read_poll cursor cb None > 0 then drain () in
  drain ();
  Runtime_events.free_cursor cursor;
  obj
    [
      float_field "pause_s" (Int64.to_float !total_ns /. 1e9);
      int_field "pauses" !pauses;
      int_field "lost_events" !lost;
    ]

(* ------------------------------------------------------------------ *)
(* reference: a fixed amount of standard-library work, run in a process
   of its own right before every timed round.  A shared 2-vCPU host
   switches between speed states (the same round takes 25-60% longer
   for tens of seconds at a time); run.py scales each round's times by this
   round-adjacent reference so that host state cancels.  It touches no
   library code, so no change to the simulator can move it.  The mix
   follows the workloads: hash-table probes on a working set larger
   than the caches, short-lived allocation, integer mixing like the
   SHA-256 rounds behind Data signing, and MD5 over 1 KiB buffers. *)

let reference () =
  let t0 = now_s () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 300_000 do
    let k = (i * 7919) land 0x3FFFF in
    (match Hashtbl.find_opt h k with
    | Some v -> acc := !acc + v
    | None -> Hashtbl.replace h k i);
    if Hashtbl.length h >= 60_000 then Hashtbl.reset h
  done;
  let l = ref [] in
  for i = 0 to 200_000 do
    l := (string_of_int i, float_of_int i) :: !l;
    if i land 0xFFFF = 0 then l := []
  done;
  let w = Array.init 64 (fun i -> i * 0x9E3779B1) in
  for r = 0 to 40_000 do
    for j = 0 to 63 do
      let x = w.(j) lxor (w.((j + 1) land 63) lsr 7) lxor (w.((j + 13) land 63) lsl 3) in
      w.(j) <- (x + r) land 0xFFFFFFFF
    done
  done;
  let buf = Bytes.make 1024 'x' in
  for i = 0 to 2_000 do
    Bytes.set buf (i land 1023) (Char.chr (i land 255));
    acc := !acc + Char.code (Digest.bytes buf).[0]
  done;
  let elapsed = now_s () -. t0 in
  obj
    [
      float_field "ref_s" elapsed;
      int_field "checksum" ((!acc + List.length !l + w.(0)) land 0xFFFF);
    ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  spans_on := List.mem "--spans" args;
  let args = List.filter (fun a -> a <> "--spans") args in
  let line =
    match args with
    | [ "tree-flood"; seed ] -> tree_round (int_of_string seed)
    | [ "fig5-replay"; seed ] -> fig5_round (int_of_string seed)
    | [ "calibrate"; shape ] -> calibrate shape
    | [ "gc-pauses"; dir; pid ] -> gc_pauses dir (int_of_string pid)
    | [ "reference" ] -> reference ()
    | _ ->
      prerr_endline
        "usage: perfbench.exe (tree-flood SEED | fig5-replay SEED) [--spans]\n\
        \       perfbench.exe calibrate (tree|fig5|lan)\n\
        \       perfbench.exe gc-pauses DIR PID\n\
        \       perfbench.exe reference";
      exit 2
  in
  print_endline line
