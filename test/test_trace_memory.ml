(* Bounded-memory tracing: a campaign streamed through a writer holds
   no per-event state, so the cost of tracing it — peak major heap
   traced minus peak major heap untraced — must grow by only a few
   bytes per additional event when the campaign grows 10x (what remains
   is the encoder's intern table of distinct names).  The same
   measurement over a buffering tracer is the control: it must see the
   ~200 B/event the buffer costs, or the metric is blind.

   Heap peaks only ever rise within a process, so each measurement runs
   in a fresh child process: this executable re-run with
   [--measure MODE CONTENTS], printing "EVENTS TOP_HEAP_BYTES". *)

let top_heap_bytes () =
  (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)

let measure mode contents =
  let tracer =
    match mode with
    | "untraced" -> Sim.Trace.disabled
    | "streamed" -> Sim.Trace.writer Sim.Trace.Binary (open_out_bin Filename.null)
    | "buffered" -> Sim.Trace.create ()
    | m -> invalid_arg ("test_trace_memory: unknown mode " ^ m)
  in
  ignore
    (Attack.Timing_experiment.run
       ~make_setup:(fun ~seed ~tracer -> Ndn.Network.lan ~seed ~tracer ())
       ~contents ~runs:1 ~seed:1 ~jobs:1 ~tracer ());
  Sim.Trace.finish tracer;
  Printf.printf "%d %d\n" (Sim.Trace.length tracer) (top_heap_bytes ())

let child mode contents =
  let out = Filename.temp_file "trace_memory" ".txt" in
  let cmd =
    Filename.quote_command Sys.executable_name ~stdout:out
      [ "--measure"; mode; string_of_int contents ]
  in
  let status = Sys.command cmd in
  let line = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  if status <> 0 then Alcotest.failf "%s exited %d" cmd status;
  Scanf.sscanf line "%d %d" (fun events top -> (events, top))

let small = 200

let large = 2000

(* Tracing cost per additional event between the small and the large
   campaign, in bytes of peak major heap. *)
let slope mode =
  let cost contents =
    let events, top = child mode contents in
    let _, untraced = child "untraced" contents in
    (events, top - untraced)
  in
  let n_small, c_small = cost small in
  let n_large, c_large = cost large in
  if n_large <= n_small then
    Alcotest.fail "the larger campaign emitted no more events";
  float_of_int (c_large - c_small) /. float_of_int (n_large - n_small)

let bound = 16.

let test_streamed_is_bounded () =
  let buffered = slope "buffered" in
  Alcotest.(check bool)
    (Printf.sprintf "control: buffering costs %.1f B/event (> %.0f)" buffered
       (4. *. bound))
    true
    (buffered > 4. *. bound);
  let streamed = slope "streamed" in
  Alcotest.(check bool)
    (Printf.sprintf "streaming costs %.2f B/event (< %.0f)" streamed bound)
    true (streamed < bound)

let () =
  match Array.to_list Sys.argv with
  | [ _; "--measure"; mode; contents ] -> measure mode (int_of_string contents)
  | _ ->
    Alcotest.run "trace_memory"
      [
        ( "writer",
          [
            Alcotest.test_case "bounded heap growth" `Slow
              test_streamed_is_bounded;
          ] );
      ]
