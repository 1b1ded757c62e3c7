(* The [loopback] workload: the real UDP runtime, 16 nodes in this process
   on 127.0.0.1, at the deploy-local compressed timescales, with a closed
   loop of 256 datagram flows.  It is the only workload
   that runs the select loop, the sockets and the frame and packet codecs.
   Timings here are wall-clock: the metric is a rate the host delivers. *)

open Common
module Udp = Apor_deploy.Udp_runtime
module Node_core = Apor_overlay_core.Node_core
module Config = Apor_overlay_core.Config
module Dp = Apor_dataplane

let nodes = 16
let flows = 256
(* Each flow thinks 4 ms between datagrams, which holds the loop near 40%
   of one core.  With no think time the loop saturates, and then its rate
   swung from 150k to 270k datagrams/s between identical runs (batching and
   a million pending flow timers make it chaotic); below saturation the
   rate is set by the flows and the CPU per wall second is the cost. *)
let think_s = 0.004

(* The deploy-local timescales of lib/dataplane/run.ml (not exported
   there): the paper's parameter ratios, 30x faster. *)
let config =
  {
    Config.quorum_default with
    Config.probe_interval_s = 1.0;
    probes_for_failure = 3;
    probe_timeout_s = 0.2;
    rapid_probe_interval_s = 0.25;
    routing_interval_s = 0.5;
    membership_refresh_s = 60.;
  }

(* Outside the 9400-9900 range the CI smoke tests bind, so the benchmark
   can run beside the test suite.  A busy range moves on to the next; no
   socket at all is an error, never a skip. *)
let base_ports = [ 19100; 19300; 19500; 19700 ]

let create ~seed =
  let rec go = function
    | [] -> failwith "loopback: every base port range is in use"
    | base_port :: rest -> (
        match Udp.create ~config ~n:nodes ~base_port ~seed () with
        | udp -> udp
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> go rest
        | exception Unix.Unix_error (err, fn, _) ->
            failwith
              (Printf.sprintf "loopback: sockets unavailable (%s in %s)" (Unix.error_message err) fn))
  in
  go base_ports

let coverage_deadline_s = 30.
let ramp_s = 6.

let setup ~seed =
  let w0 = Unix.gettimeofday () in
  let udp = create ~seed in
  Udp.start udp;
  let w1 = Unix.gettimeofday () in
  let rec wait () =
    let covered, total = Udp.coverage udp in
    if covered < total then begin
      if Unix.gettimeofday () -. w1 > coverage_deadline_s then
        failwith (Printf.sprintf "loopback: routing covers %d of %d pairs after %gs" covered total coverage_deadline_s);
      Udp.run udp ~duration:0.02;
      wait ()
    end
  in
  wait ();
  let w2 = Unix.gettimeofday () in
  let setup =
    Obj
      [
        ("setup_s", Num (w2 -. wall_at_start));
        ("topology_s", Num (w0 -. wall_at_start));
        ("create_s", Num (w1 -. w0));
        ("warmup_s", Num (w2 -. w1));
      ]
  in
  (udp, setup, w2 -. wall_at_start)

let run ~seed ~seconds ~traced ~setup_only =
  let udp, setup_obj, setup_s = setup ~seed in
  if setup_only then begin
    Udp.close udp;
    print_json (Obj [ ("setup", setup_obj) ])
  end
  else begin
    let spec =
      {
        Dp.Workload.default with
        Dp.Workload.mode = Dp.Workload.Closed_loop { window = flows; think_s = think_s };
        rate_pps = 100. *. float_of_int flows (* flow start stagger: all open within 10 ms *);
      }
    in
    let st = Udp.stats udp in
    (* Control bytes (probe and routing; membership is static) are what
       the runtime accounts minus the data frames it accounts at both ends:
       a frame's size at the sender, the consumed bytes at the receiver. *)
    let control_bytes () =
      List.fold_left ( + ) 0 (List.init nodes (Udp.accounted_bytes udp))
      - (st.Udp.data_frames_sent * (Dp.Packet.header_bytes + spec.Dp.Workload.payload_bytes))
      - st.Udp.data_bytes_received
    in
    let snap () =
      ( st.Udp.datagrams_sent + st.Udp.data_batches_sent,
        st.Udp.datagrams_received,
        st.Udp.send_retries,
        st.Udp.frames_dropped + st.Udp.data_frames_dropped,
        st.Udp.data_frames_sent,
        st.Udp.data_batches_sent,
        control_bytes () )
    in
    (* Every datagram arms a flow timeout that fires, as a no-op, 5 s after
       it was sent (Udp_driver.flow_timeout_s); the loop reaches its steady
       state only once those start to expire, so a ramp driver runs the same
       load for longer than the timeout first.  At the window's start a
       fresh driver with fresh [Metrics] takes over the data sink, so every
       datagram, latency and share it reports was sent in the window; the
       ramp driver's timers keep expiring while the new one's build up, so
       the timer heap stays at its steady size. *)
    let ramp =
      Dp.Udp_driver.attach ~udp ~spec ~seed
        ~metrics:(Dp.Metrics.create ~window_s:1. ~t0:(Udp.now udp))
        ()
    in
    Udp.run udp ~duration:ramp_s;
    Dp.Udp_driver.stop ramp;
    let metrics = Dp.Metrics.create ~window_s:1. ~t0:(Udp.now udp) in
    let driver = Dp.Udp_driver.attach ~udp ~spec ~seed ~metrics () in
    let sends0, recvs0, retries0, dropped0, frames0, batches0, control0 = snap () in
    let tms0 = Unix.times () in
    let wall0 = Unix.gettimeofday () in
    let ages = ref [] and age_missing = ref 0 in
    let route_probes = ref 0 and route_ok = ref 0 in
    let sample () =
      let now = Udp.now udp in
      for i = 0 to nodes - 1 do
        let core = Udp.node_core udp i in
        for j = 0 to nodes - 1 do
          if i <> j then begin
            (match Node_core.freshness core ~now ~dst_port:j with
            | Some a -> ages := a :: !ages
            | None -> incr age_missing);
            incr route_probes;
            match Node_core.best_hop core ~now ~dst_port:j with
            | Some h when Udp.node_alive udp h -> incr route_ok
            | Some _ | None -> ()
          end
        done
      done
    in
    (* One rate, CPU rate and latency histogram per wall second; the
       machine's slow spells last seconds, so the medians over the seconds
       are the steady rate and latencies.  The closed loop holds the rate
       within 2%, so every second does like work and the least disturbed
       second's CPU is the steady cost, as for the simulator's repeats.  The
       histogram is read between seconds, off the clock.  Ages are sampled
       at ten instants in each second, placed at seeded random offsets so
       that the sampling does not lock onto the phase of the 0.5 s routing
       ticks. *)
    let rng = Random.State.make [| seed; 0x5eed |] in
    let latency_bins () =
      hist_bins (Dp.Metrics.latency_percentile metrics) ~total:(Dp.Metrics.delivered metrics)
    in
    let prev_bins = ref [] in
    let seconds_read =
      List.init (max 1 seconds) (fun _ ->
          let d0 = Dp.Udp_driver.delivered driver in
          let t0 = Unix.gettimeofday () in
          let c0 = cpu () in
          let cuts = List.sort compare (List.init 10 (fun _ -> Random.State.float rng 1.0)) in
          let at = ref 0. in
          List.iter
            (fun cut ->
              Udp.run udp ~duration:(cut -. !at);
              at := cut;
              sample ())
            cuts;
          Udp.run udp ~duration:(1.0 -. !at);
          let span = Unix.gettimeofday () -. t0 in
          let rate = float_of_int (Dp.Udp_driver.delivered driver - d0) /. span in
          let cpu_rate = (cpu () -. c0) /. span in
          let bins = latency_bins () in
          let second = bins_diff bins !prev_bins in
          prev_bins := bins;
          (rate, cpu_rate, second))
    in
    let rates = List.map (fun (r, _, _) -> r) seconds_read in
    let cpu_rates = List.map (fun (_, c, _) -> c) seconds_read in
    let second_bins = List.map (fun (_, _, b) -> b) seconds_read in
    let window_bins = !prev_bins in
    let wall1 = Unix.gettimeofday () in
    let tms1 = Unix.times () in
    let sends1, recvs1, retries1, dropped1, frames1, batches1, control1 = snap () in
    let delivered1 = Dp.Udp_driver.delivered driver in
    (* stop originating and let the window's last datagrams land *)
    Dp.Udp_driver.stop driver;
    Udp.run udp ~duration:0.5;
    let sent = Dp.Udp_driver.sent driver and delivered = Dp.Udp_driver.delivered driver in
    let undecodable = List.fold_left ( + ) 0 (List.init nodes (Udp.undecodable udp)) in
    Udp.close udp;
    check "datagrams_sent" (sent > 0) (Printf.sprintf "sent=%d" sent);
    check "delivered_le_sent" (delivered <= sent)
      (Printf.sprintf "sent=%d delivered=%d" sent delivered);
    check "undecodable_frames" (undecodable = 0) (Printf.sprintf "%d undecodable frames" undecodable);
    (* latency percentile [p]: the median over the seconds of each
       second's percentile, refused if any second's lands on the floor *)
    let ms name p =
      let reads = List.map (fun b -> (read_bins b ~p).value) second_bins in
      if List.mem None reads then begin
        check ("latency_above_floor_" ^ name) false
          "percentile lands in the 100 us floor bin of the latency histogram";
        nan
      end
      else 1000. *. median (List.filter_map Fun.id reads)
    in
    let span = wall1 -. wall0 in
    let user = tms1.Unix.tms_utime -. tms0.Unix.tms_utime in
    let sys = tms1.Unix.tms_stime -. tms0.Unix.tms_stime in
    let e2e =
      [
        ("setup_s", Num setup_s);
        ("cpu_s_per_sim_s", Num (List.fold_left Float.min infinity cpu_rates));
        ("dgram_pps", Num (median rates));
        ("peak_heap_mb", Num (peak_heap_mb ()));
        ( "routing_bytes_per_node_s",
          Num (float_of_int (control1 - control0) /. float_of_int nodes /. span) );
        ("rec_age_p50_s", Num (percentile !ages 50.));
        ("rec_age_p99_s", Num (percentile !ages 99.));
        ("route_ok_share", Num (float_of_int !route_ok /. float_of_int (max 1 !route_probes)));
        ("dgram_delivered_share", Num (float_of_int delivered /. float_of_int (max 1 sent)));
        ("dgram_latency_p50_ms", Num (ms "p50" 50.));
        ("dgram_latency_p99_ms", Num (ms "p99" 99.));
        (* not applicable here, see NOTES.md: every path is the loopback
           interface, so the library's baseline (the fastest direct delivery
           seen) measures queueing, not path stretch; and there are no joins *)
        ("stretch_p99", Num 1.);
        ("join_ok_share", Num 1.);
      ]
    in
    let samples =
      [
        ("window_s", Num span);
        ("window_chunks", Int (List.length rates));
        ("window_cpu_s_per_s", Arr (List.map (fun c -> Num c) cpu_rates));
        ("rec_age", Int (List.length !ages));
        ("rec_age_missing", Int !age_missing);
        ("route_probes", Int !route_probes);
        ("dgram_latency", Int delivered1);
        ("joins", Int 0);
      ]
    in
    let layers =
      if not traced then []
      else
        let dgrams = float_of_int (max 1 delivered1) in
        [
          ("udp.user_cpu_s_per_s", Num (user /. span));
          ("udp.sys_cpu_s_per_s", Num (sys /. span));
          ( "udp.frames_per_batch",
            Num (float_of_int (frames1 - frames0) /. float_of_int (max 1 (batches1 - batches0))) );
          ( "udp.syscalls_per_dgram",
            Num (float_of_int (sends1 - sends0 + (recvs1 - recvs0) + (retries1 - retries0)) /. dgrams)
          );
          ("udp.send_retries", Int (retries1 - retries0));
          ("udp.frames_dropped", Int (dropped1 - dropped0));
          ("udp.latency_floor_share", Num (read_bins window_bins ~p:50.).floor_share);
        ]
    in
    print_json
      (Obj
         [
           ("setup", setup_obj);
           ("e2e", Obj e2e);
           ("samples", Obj samples);
           ("layers", Obj layers);
           ("fingerprint", Obj []);
           ("attempted", Int sent);
           ("checks", checks_json ());
         ])
  end
