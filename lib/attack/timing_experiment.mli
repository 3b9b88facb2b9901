(** The measurement campaigns behind Figure 3: collect hit-vs-miss RTT
    distributions in a given topology and quantify how well the
    adversary distinguishes them. *)

type phase = {
  phase_start : float;  (** Inclusive start (virtual ms within a run). *)
  phase_end : float;  (** Exclusive end; [infinity] for the last phase. *)
  phase_warm : int;  (** Warm (should-be-hit) probes issued in the window. *)
  phase_cold : int;
  phase_accuracy : float;
      (** Balanced accuracy of the campaign-wide detector restricted to
          this window's probes (timeouts classified as misses); [nan]
          when a side is empty. *)
  phase_fnr : float;
      (** False-negative rate: warm probes the adversary classified as
          "not cached" (slow answer or timeout).  This is the headline
          churn metric — every router restart flushes the cache, so the
          user's requests stop being observable until re-warmed. *)
}

type result = {
  hit_samples : float array;  (** RTTs of probes served from the probed cache. *)
  miss_samples : float array;  (** RTTs of probes served from beyond it. *)
  hit_hist : Sim.Histogram.t;
  miss_hist : Sim.Histogram.t;  (** Shared bin layout with [hit_hist]. *)
  success_rate : float;
      (** Held-out balanced accuracy of the trained {!Detector} — the
          number the paper reports (99.9% LAN, >99% WAN, 59%
          producer). *)
  timeouts : int;
  phases : phase list;
      (** Separability per fault phase (segments of
          {!Sim.Fault.phase_boundaries}); empty without [faults]. *)
}

val run :
  make_setup:(seed:int -> tracer:Sim.Trace.t -> Ndn.Network.probe_setup) ->
  ?contents:int ->
  ?runs:int ->
  ?seed:int ->
  ?bins:int ->
  ?jobs:int ->
  ?shards:int ->
  ?tracer:Sim.Trace.t ->
  ?faults:Sim.Fault.schedule ->
  ?probe_interval_ms:float ->
  ?probe_lag_ms:float ->
  unit ->
  result
(** Reproduce the paper's procedure: per run (fresh caches), the
    producer publishes [contents] objects, the honest user U fetches
    the "warm" half, and the adversary then probes warm names (hit
    samples) and never-requested names (miss samples).  Defaults:
    [contents = 100] per run, [runs = 10], 40 histogram [bins].

    Runs execute on [jobs] domains via {!Sim.Parallel} — run [r] is a
    pure function of [seed + r] and per-run samples are concatenated in
    run order, so the result is identical for any [jobs].

    [shards] (default 1) declares how many {!Sim.Shard} domains each
    run's network spins up — the campaign does not shard networks
    itself; pass a [make_setup] that builds them (e.g.
    [Ndn.Network.lan ~shards]) and declare the count here so the two
    fan-out axes can be budgeted together.  When [jobs] is omitted it
    is derated to [default_jobs () / shards] (at least 1); an explicit
    [jobs] is validated with {!Sim.Parallel.check_domains}, and the
    campaign raises [Invalid_argument] when [jobs * shards] exceeds the
    domain budget.

    [tracer] (default {!Sim.Trace.disabled}) receives every run's
    events in run order — usually a {!Sim.Trace.writer}, which encodes
    them as they are emitted.  When the runs execute one at a time
    (one worker), [make_setup] is handed [tracer] itself, so nothing is
    buffered; with several workers each run buffers privately and the
    buffers drain into [tracer] in run order, and are dropped, after
    the last run.  Either way [tracer] sees the same events in the
    same order for any [jobs].

    [faults] (default empty — byte-identical to the unfaulted
    procedure) installs the schedule into every run's fresh network and
    paces the warm/probe/probe triples across the fault horizon, one
    triple every [probe_interval_ms] (default: the horizon plus a tail,
    divided by [contents], floored at 50 ms), so probes sample every
    network regime; [result.phases] then reports per-phase
    separability.  Within each triple the adversary probes
    [probe_lag_ms] (default: half the interval) after the user's fetch
    — the adversary cannot observe the fetch, so a router reboot inside
    that window flushes the cache and produces a false negative.
    @raise Invalid_argument if the schedule names unknown nodes or
    links. *)

val run_producer_privacy :
  make_setup:(seed:int -> tracer:Sim.Trace.t -> Ndn.Network.probe_setup) ->
  ?contents:int ->
  ?runs:int ->
  ?seed:int ->
  ?bins:int ->
  ?jobs:int ->
  ?shards:int ->
  ?tracer:Sim.Trace.t ->
  ?faults:Sim.Fault.schedule ->
  ?probe_interval_ms:float ->
  ?probe_lag_ms:float ->
  unit ->
  result
(** Variant for Figure 3(c): "hit" means {e some consumer} recently
    requested the content (it sits in R's cache), "miss" means only
    the producer has it.  Identical mechanics, different
    interpretation; kept separate so call sites document which claim
    they reproduce. *)

val false_negative_rate : result -> float
(** Warm-probe-weighted average of the per-phase false-negative rates;
    [nan] for an unfaulted campaign (no phases). *)

val pp_result : Format.formatter -> result -> unit
(** Histograms side by side plus the distinguisher success rate, and —
    for faulted campaigns — a per-phase separability table. *)
