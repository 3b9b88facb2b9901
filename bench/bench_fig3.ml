(* Figure 3: cache hit vs. cache miss RTT distributions and the
   adversary's distinguishing probability, in the paper's four
   measurement settings. *)

let section fmt = Format.printf fmt

let paper_reference = function
  | "LAN" -> "paper: support ~3.3-12.3 ms, distinguisher > 99.9%"
  | "WAN" -> "paper: support ~4.5-22.1 ms, distinguisher > 99%"
  | "WAN producer privacy" -> "paper: support ~180-220 ms, single-probe ~59%"
  | "Local host" -> "paper: support ~0.4-12.1 ms, near-perfect distinguisher"
  | _ -> ""

let run_one ~label ~make_setup ~contents ~runs ~jobs ~tracer =
  let result =
    Attack.Timing_experiment.run ~make_setup ~contents ~runs ~jobs ~tracer ()
  in
  section "@.--- Figure 3: %s ---@." label;
  section "%s@." (paper_reference label);
  Attack.Timing_experiment.pp_result Format.std_formatter result;
  result.Attack.Timing_experiment.success_rate

let run ~scale ~jobs ?trace () =
  let contents = 50 * scale and runs = 4 * scale in
  (* All four campaigns stream, in a fixed order and each in run order,
     into one writer — the file is identical for any --jobs. *)
  let tracer, close_trace =
    match trace with
    | None -> (Sim.Trace.disabled, ignore)
    | Some (file, fmt) ->
      let oc = open_out_bin file in
      let tracer = Sim.Trace.writer fmt oc in
      ( tracer,
        fun () ->
          Sim.Trace.finish tracer;
          close_out oc;
          section "trace: %d events -> %s (%s)@." (Sim.Trace.length tracer) file
            (Sim.Trace.format_to_string fmt) )
  in
  section "@.================ Figure 3: timing attacks ================@.";
  let lan =
    run_one ~label:"LAN"
      ~make_setup:(fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ())
      ~contents ~runs ~jobs ~tracer
  in
  let wan =
    run_one ~label:"WAN"
      ~make_setup:(fun ~seed ~tracer -> Ndn.Network.wan ~seed ~tracer ())
      ~contents ~runs ~jobs ~tracer
  in
  let producer =
    run_one ~label:"WAN producer privacy"
      ~make_setup:(fun ~seed ~tracer ->
        Ndn.Network.wan_producer ~seed ~tracer ())
      ~contents ~runs ~jobs ~tracer
  in
  let local =
    run_one ~label:"Local host"
      ~make_setup:(fun ~seed ~tracer -> Ndn.Network.local_host ~seed ~tracer ())
      ~contents ~runs ~jobs ~tracer
  in
  section "@.Figure 3 summary (distinguisher success, paper -> measured):@.";
  section "  (a) LAN:              >99.9%%  ->  %5.2f%%@." (100. *. lan);
  section "  (b) WAN:              >99%%    ->  %5.2f%%@." (100. *. wan);
  section "  (c) producer privacy:  59%%    ->  %5.2f%%@." (100. *. producer);
  section "  (d) local host:       ~100%%   ->  %5.2f%%@." (100. *. local);
  close_trace ()
