(* The simulator workloads, [scale] and [joins].

   Every mode builds the same program: a synthetic Internet, a cluster on
   the discrete-event engine, an open-loop datagram load, and (on [joins])
   a stream of nodes joining through the quorum membership protocol.  The
   modes differ only in how the measurement window is driven:

   - [Measure] advances the cluster with [Cluster.run_until] and times
     fixed-length chunks of simulated time with process CPU time;
   - [Traced] alternates chunks: even chunks step the engine one event at
     a time under an [Engine.set_tap] observer that classifies each step
     and charges it its CPU time and minor words, odd chunks run untraced
     so the tracing overhead can be read off in the same process;
   - [Oracle] attaches a trace collector and the invariant oracle from the
     first event on and reports their verdicts; it is never timed, because
     a collector switches the routers onto a copying ingest path. *)

open Common
module Cluster = Apor_overlay.Cluster
module Node = Apor_overlay.Node
module Config = Apor_overlay_core.Config
module View = Apor_overlay_core.View
module Engine = Apor_sim.Engine
module Traffic = Apor_sim.Traffic
module Internet = Apor_topology.Internet
module Failures = Apor_topology.Failures
module Collector = Apor_trace.Collector
module Oracle = Apor_trace.Oracle
module Dp = Apor_dataplane

type spec = {
  ports : int;  (** network endpoints; all are members at the end *)
  genesis : int;  (** members at time 0 ([= ports]: static membership) *)
  churn : bool;  (** PlanetLab-style link failures *)
  rate_pps : float;  (** open-loop datagram rate, uniform pairs *)
  warmup_s : float;  (** cold start before the window opens *)
  window_s : float;
  chunk_s : float;  (** timing granularity inside the window *)
  join_gap_s : float;
  join_deadline_s : float;
  pairs : int;  (** pairs probed per sampling instant *)
}

let scale_nodes = 256
let joins_genesis = 64

(* The codec kernels for [joins] are sized for its membership at the end
   of a --seconds 10 run: 64 genesis members and 32 joiners. *)
let joins_codec_nodes = 96

let scale ~seconds =
  {
    ports = scale_nodes;
    genesis = scale_nodes;
    churn = true;
    rate_pps = 200.;
    warmup_s = 60.;
    window_s = 6. *. seconds;
    chunk_s = 15.;
    join_gap_s = 0.;
    join_deadline_s = 0.;
    pairs = 64;
  }

(* Recommendations are scoped to a membership view, so while views change
   every [gap] seconds almost no pair holds one; the window ends with a
   settled tail of three routing intervals in which they come back. *)
let joins ~seconds =
  let joiners = max 4 (int_of_float (Float.round (3.2 *. seconds))) in
  let gap = 3. in
  {
    ports = joins_genesis + joiners;
    genesis = joins_genesis;
    churn = false;
    rate_pps = 2000.;
    warmup_s = 45.;
    window_s = (float_of_int joiners *. gap) +. 45.;
    chunk_s = 6.;
    join_gap_s = gap;
    join_deadline_s = 10.;
    pairs = 384;
  }

let joiners spec = spec.ports - spec.genesis

type mode = Measure | Traced | Oracle

(* --- set-up --------------------------------------------------------------- *)

type setup = {
  cluster : Cluster.t;
  oracle : (Oracle.t * Collector.t) option;
  topology_s : float;
  create_s : float;
  warmup_cpu_s : float;
  setup_s : float;  (** process CPU from start to the window opening *)
}

(* Every run uses the same synthetic Internet; the run's seed drives the
   protocol's randomness, the link failures and the datagram load.  The
   latency and byte metrics depend mostly on the map, and a map drawn per
   seed would make them vary between runs for no change in the program. *)
let world_seed = 2009

let setup spec ~seed ~mode =
  let c0 = cpu () in
  let world = Internet.generate ~seed:world_seed ~n:spec.ports () in
  let c1 = cpu () in
  let config = Config.quorum_default in
  let oracle =
    match mode with
    | Oracle ->
        let trace = Collector.create ~capacity:1024 () in
        let o =
          Oracle.create ~raise_on_violation:false ~metric:config.Config.metric
            ~staleness_s:
              (float_of_int config.Config.staleness_windows *. config.Config.routing_interval_s)
            ()
        in
        Oracle.attach o trace;
        Some (o, trace)
    | Measure | Traced -> None
  in
  let membership =
    if spec.genesis < spec.ports then Cluster.Dynamic { initial = spec.genesis; rtt_ms = 50. }
    else Cluster.Static
  in
  let cluster =
    Cluster.create ~config ~rtt_ms:world.Internet.rtt_ms ~loss:world.Internet.loss ~membership
      ?trace:(Option.map snd oracle) ~seed ()
  in
  if spec.churn then
    ignore
      (Failures.install ~engine:(Cluster.engine cluster) ~profile:Failures.planetlab ~seed ()
        : Failures.t);
  Cluster.start cluster;
  let c2 = cpu () in
  Cluster.run_until cluster spec.warmup_s;
  let c3 = cpu () in
  {
    cluster;
    oracle;
    topology_s = c1 -. c0;
    create_s = c2 -. c1;
    warmup_cpu_s = c3 -. c2;
    setup_s = c3;
  }

let setup_json s =
  Obj
    [
      ("setup_s", Num s.setup_s);
      ("topology_s", Num s.topology_s);
      ("create_s", Num s.create_s);
      ("warmup_s", Num s.warmup_cpu_s);
    ]

(* --- per-step classification ---------------------------------------------- *)

let class_names =
  [|
    "router.ingest";
    "router.tick";
    "monitor.ingest";
    "monitor.tick";
    "membership";
    "dataplane.forward";
    "dataplane.originate";
    "engine.quiet_timers";
  |]

let quiet = 7

let of_delivery : Traffic.cls -> int = function
  | Routing -> 0
  | Probe -> 2
  | Membership -> 4
  | Data -> 5

let of_first_send : Traffic.cls -> int = function
  | Routing -> 1
  | Probe -> 3
  | Membership -> 4
  | Data -> 6

type acc = {
  mutable cur : int;  (** class of the step in progress, -1 until known *)
  calls : int array;
  cpu_s : float array;
  words : float array;
  mutable member_msgs : int;  (** membership-class sends inside the window *)
}

let new_acc () =
  let k = Array.length class_names in
  { cur = -1; calls = Array.make k 0; cpu_s = Array.make k 0.; words = Array.make k 0.; member_msgs = 0 }

let install_tap acc engine =
  Engine.set_tap engine
    (Some
       {
         Engine.on_send =
           (fun ~cls ~src:_ ~dst:_ ~bytes:_ ->
             if acc.cur < 0 then acc.cur <- of_first_send cls;
             if cls = Traffic.Membership then acc.member_msgs <- acc.member_msgs + 1);
         on_deliver = (fun ~cls ~src:_ ~dst:_ ~bytes:_ -> acc.cur <- of_delivery cls);
         on_drop = (fun ~cls:_ ~src:_ ~dst:_ ~bytes:_ -> ());
       })

(* Step the engine up to [horizon], one event at a time.  A sentinel timer
   at the horizon ends the loop (it is not counted); events due exactly at
   the horizon but queued behind it run untraced afterwards, so the
   simulation is identical to [Engine.run_until].  The clock is read once
   per step: each step is charged from the previous reading to its own, so
   the loop's bookkeeping lands in the classes and reading the clock costs
   one system call per event. *)
let traced_advance acc engine horizon =
  let stop = ref false in
  Engine.schedule_at engine ~time:horizon (fun () -> stop := true);
  let last = ref (cpu ()) in
  while not !stop do
    acc.cur <- -1;
    let w0 = Gc.minor_words () in
    ignore (Engine.step engine : bool);
    let w1 = Gc.minor_words () in
    let now = cpu () in
    if not !stop then begin
      let k = if acc.cur < 0 then quiet else acc.cur in
      acc.calls.(k) <- acc.calls.(k) + 1;
      acc.cpu_s.(k) <- acc.cpu_s.(k) +. (now -. !last);
      acc.words.(k) <- acc.words.(k) +. (w1 -. w0)
    end;
    last := now
  done;
  Engine.run_until engine horizon

(* --- the window ------------------------------------------------------------ *)

type chunk = { traced : bool; c_cpu : float; c_sim : float; c_events : int }

(* Probes sample every simulated second: the p99 recommendation age needs
   thousands of samples per sub-seed to be steady between runs. *)
let sample_every_s = 1.
let poll_s = 0.01
let drain_s = 3.

let members_at cluster ~ports =
  let acc = ref [] in
  for p = ports - 1 downto 0 do
    match Node.current_view (Cluster.node cluster p) with
    | Some v when View.contains_port v p -> acc := p :: !acc
    | Some _ | None -> ()
  done;
  Array.of_list !acc

let run ~spec ~seed ~mode ~setup_only =
  let s = setup spec ~seed ~mode in
  if setup_only then print_json (Obj [ ("setup", setup_json s) ])
  else begin
    let cluster = s.cluster in
    let engine = Cluster.engine cluster in
    let t_start = Cluster.now cluster in
    let t_end = t_start +. spec.window_s in
    let trace = Option.map snd s.oracle in
    let metrics = Dp.Metrics.create ~window_s:10. ~t0:t_start in
    let driver =
      Dp.Sim_driver.attach ~cluster
        ~spec:{ Dp.Workload.default with Dp.Workload.rate_pps = spec.rate_pps }
        ~seed ~metrics ?trace ()
    in
    let acc = new_acc () in
    if mode = Traced then install_tap acc engine;
    (* The benchmark's own sampling stream: independent of the cluster's. *)
    let rng = Random.State.make [| seed; 0x5eed |] in
    let ages = ref [] and age_missing = ref 0 in
    let route_probes = ref 0 and route_ok = ref 0 in
    let sample () =
      let live = members_at cluster ~ports:spec.ports in
      let m = Array.length live in
      for _ = 1 to spec.pairs do
        let src = live.(Random.State.int rng m) in
        let dst = live.(Random.State.int rng m) in
        if src <> dst then begin
          (match Cluster.freshness cluster ~src ~dst with
          | Some a -> ages := a :: !ages
          | None -> incr age_missing);
          incr route_probes;
          if Cluster.route_ok cluster ~src ~dst then incr route_ok
        end
      done
    in
    (* joins: join [k] is requested at [t_start + k * gap] *)
    let n_join = joiners spec in
    let join_at = Array.init n_join (fun k -> t_start +. (float_of_int k *. spec.join_gap_s)) in
    let admitted_after = Array.make n_join nan in
    let next_join = ref 0 in
    let pending () =
      let any = ref false in
      for k = 0 to !next_join - 1 do
        if Float.is_nan admitted_after.(k) then any := true
      done;
      !any
    in
    let poll () =
      for k = 0 to !next_join - 1 do
        if Float.is_nan admitted_after.(k) then begin
          let port = spec.genesis + k in
          match Node.current_view (Cluster.node cluster port) with
          | Some v when View.contains_port v port ->
              admitted_after.(k) <- Cluster.now cluster -. join_at.(k)
          | Some _ | None -> ()
        end
      done
    in
    let gc0 = Gc.quick_stat () in
    let chunks = ref [] in
    let n_chunks = int_of_float (Float.ceil ((spec.window_s /. spec.chunk_s) -. 1e-9)) in
    let n_samples = int_of_float (spec.window_s /. sample_every_s) in
    let next_sample = ref 1 in
    let close_to a b = Float.abs (a -. b) < 1e-9 in
    for c = 0 to n_chunks - 1 do
      let traced = mode = Traced && c mod 2 = 0 in
      let c_begin = t_start +. (float_of_int c *. spec.chunk_s) in
      let c_end = Float.min t_end (c_begin +. spec.chunk_s) in
      let ev0 = (Engine.stats engine).Engine.events in
      let spent = ref 0. in
      let now = ref c_begin in
      while !now < c_end -. 1e-9 do
        let sample_t = t_start +. (float_of_int !next_sample *. sample_every_s) in
        let join_t = if !next_join < n_join then join_at.(!next_join) else infinity in
        let poll_t = if pending () then !now +. poll_s else infinity in
        let target = Float.min c_end (Float.min sample_t (Float.min join_t poll_t)) in
        let target = Float.max target !now in
        let t0 = cpu () in
        if target > !now then begin
          if traced then traced_advance acc engine target else Cluster.run_until cluster target
        end;
        spent := !spent +. (cpu () -. t0);
        now := target;
        poll ();
        if close_to target sample_t && !next_sample <= n_samples then begin
          sample ();
          incr next_sample
        end;
        while !next_join < n_join && join_at.(!next_join) <= !now +. 1e-9 do
          Cluster.join_node cluster (spec.genesis + !next_join);
          incr next_join
        done
      done;
      let ev1 = (Engine.stats engine).Engine.events in
      chunks := { traced; c_cpu = !spent; c_sim = c_end -. c_begin; c_events = ev1 - ev0 } :: !chunks
    done;
    let chunks = List.rev !chunks in
    let gc1 = Gc.quick_stat () in
    if mode = Traced then Engine.set_tap engine None;
    (* drain: stop originating, let in-flight datagrams land and the last
       joiners finish before anything is judged *)
    Dp.Sim_driver.stop driver;
    let horizon = t_end +. drain_s in
    while Cluster.now cluster < horizon -. 1e-9 do
      Cluster.run_until cluster (Float.min horizon (Cluster.now cluster +. poll_s));
      poll ()
    done;
    let traffic = Cluster.traffic cluster in
    let class_bytes cls ~t0 ~t1 =
      let sum = ref 0 in
      for node = 0 to spec.ports - 1 do
        sum := !sum + Traffic.bytes_in_range traffic ~cls ~node ~t0 ~t1
      done;
      !sum
    in
    let routing_bytes = class_bytes Traffic.Routing ~t0:t_start ~t1:t_end in
    let membership_bytes = class_bytes Traffic.Membership ~t0:t_start ~t1:horizon in
    let stats = Engine.stats engine in
    let sent = Dp.Sim_driver.sent driver and delivered = Dp.Sim_driver.delivered driver in
    (* --- correctness ---------------------------------------------------- *)
    check "datagrams_sent" (sent > 0) (Printf.sprintf "sent=%d" sent);
    check "datagram_conservation"
      (delivered <= sent
      && Dp.Metrics.sent metrics = sent
      && Dp.Metrics.delivered metrics = delivered
      && Dp.Metrics.dropped metrics <= sent - delivered)
      (Printf.sprintf "sent=%d delivered=%d metrics_sent=%d metrics_delivered=%d dropped=%d" sent
         delivered (Dp.Metrics.sent metrics) (Dp.Metrics.delivered metrics)
         (Dp.Metrics.dropped metrics));
    check "packet_conservation"
      (let in_flight = stats.Engine.sends - stats.Engine.delivers - stats.Engine.drops in
       in_flight >= 0 && in_flight <= Engine.pending engine)
      (Printf.sprintf "sends=%d delivers=%d drops=%d pending=%d" stats.Engine.sends
         stats.Engine.delivers stats.Engine.drops (Engine.pending engine));
    let join_lat = Array.to_list admitted_after |> List.filter (fun x -> not (Float.is_nan x)) in
    let never = n_join - List.length join_lat in
    check "joiners_admitted" (never = 0) (Printf.sprintf "%d of %d joiners never admitted" never n_join);
    let on_time = List.length (List.filter (fun l -> l <= spec.join_deadline_s) join_lat) in
    (* --- oracle verdicts ------------------------------------------------- *)
    (match s.oracle with
    | None -> ()
    | Some (oracle, _) ->
        let now = Cluster.now cluster in
        Oracle.check_traffic oracle ~n:(Traffic.n traffic)
          ~accounted:(fun node ->
            List.fold_left
              (fun sum cls -> sum + Traffic.bytes_in_range traffic ~cls ~node ~t0:0. ~t1:(now +. 1.))
              0 Traffic.all_classes)
          ~now;
        Oracle.check_datagrams oracle ~sent ~delivered ~now;
        if n_join > 0 then
          Oracle.check_view_agreement oracle ~now ~grace_s:spec.join_deadline_s
            ~live:(List.init spec.ports Fun.id);
        let vs = Oracle.violations oracle in
        let conservation =
          List.filter
            (fun (v : Oracle.violation) ->
              match v.Oracle.check with
              | Oracle.Traffic_conservation | Oracle.Datagram_conservation -> true
              | Oracle.Quorum_intersection | Oracle.One_hop_optimality | Oracle.View_agreement ->
                  false)
            vs
        in
        (* grace: each join's admission window *)
        let windows =
          Array.to_list (Array.map (fun t -> (t, t +. spec.join_deadline_s)) join_at)
        in
        let outside = Oracle.violations_outside oracle ~windows in
        let show = function
          | [] -> ""
          | v :: _ -> Format.asprintf " first: %a" Oracle.pp_violation v
        in
        check "oracle_conservation" (conservation = [])
          (Printf.sprintf "%d conservation violations%s" (List.length conservation) (show conservation));
        check "oracle_outside_grace" (outside = [])
          (Printf.sprintf "%d violations outside grace (of %d; %d recommendations checked)%s"
             (List.length outside) (List.length vs) (Oracle.recommendations_checked oracle)
             (show outside)));
    (* --- metrics -------------------------------------------------------- *)
    let opt = function Some v -> v | None -> nan in
    let lat p = opt (read_hist (Dp.Metrics.latency_percentile metrics) ~total:delivered ~p).value in
    let stretch_n = Dp.Metrics.stretch_samples metrics in
    let stretch_p99 = (read_hist (Dp.Metrics.stretch_percentile metrics) ~total:stretch_n ~p:99.).value in
    let untraced = List.filter (fun c -> not c.traced) chunks in
    let window_cpu = List.fold_left (fun a c -> a +. c.c_cpu) 0. untraced in
    let window_sim = List.fold_left (fun a c -> a +. c.c_sim) 0. untraced in
    let cpu_per_sim = window_cpu /. window_sim in
    let n_ages = List.length !ages in
    let e2e =
      [
        ("setup_s", Num s.setup_s);
        ("cpu_s_per_sim_s", Num cpu_per_sim);
        (* not measured here: the load is a fixed open-loop rate, so a
           delivered rate would repeat the rate or, per CPU second, repeat
           [cpu_s_per_sim_s] *)
        ("dgram_pps", Num 1.);
        ("peak_heap_mb", Num (peak_heap_mb ()));
        ( "routing_bytes_per_node_s",
          Num (float_of_int routing_bytes /. float_of_int spec.ports /. spec.window_s) );
        ("rec_age_p50_s", Num (percentile !ages 50.));
        ("rec_age_p99_s", Num (percentile !ages 99.));
        ("route_ok_share", Num (float_of_int !route_ok /. float_of_int (max 1 !route_probes)));
        ("dgram_delivered_share", Num (float_of_int delivered /. float_of_int (max 1 sent)));
        ("dgram_latency_p50_ms", Num (1000. *. lat 50.));
        ("dgram_latency_p99_ms", Num (1000. *. lat 99.));
        ("stretch_p99", Num (opt stretch_p99));
        ( "join_ok_share",
          Num (if n_join = 0 then 1. else float_of_int on_time /. float_of_int n_join) );
      ]
    in
    let samples =
      [
        ("window_chunks", Int (List.length untraced));
        ("window_cpu_s", Num window_cpu);
        ("chunk_cpu_s", Arr (List.map (fun c -> Num c.c_cpu) untraced));
        ("window_sim_s", Num window_sim);
        ("rec_age", Int n_ages);
        ("rec_age_missing", Int !age_missing);
        ("route_probes", Int !route_probes);
        ("dgram_latency", Int delivered);
        ("stretch", Int stretch_n);
        ("joins", Int n_join);
        ("joins_on_time", Int on_time);
        ("join_latencies", Arr (List.map (fun l -> Num l) join_lat));
        ("membership_bytes", Int membership_bytes);
      ]
    in
    let msgs_per_join =
      if n_join = 0 then 0. else float_of_int acc.member_msgs /. float_of_int n_join
    in
    let membership_layer =
      [
        ( "membership.join_latency_p90_s",
          Num (if n_join = 0 then 0. else percentile join_lat 90.) );
        ( "membership.bytes_per_join",
          Num (if n_join = 0 then 0. else float_of_int membership_bytes /. 2. /. float_of_int n_join)
        );
      ]
    in
    let layers =
      if mode <> Traced then []
      else begin
        let traced = List.filter (fun c -> c.traced) chunks in
        let sim = List.fold_left (fun a c -> a +. c.c_sim) 0. traced in
        let tcpu = List.fold_left (fun a c -> a +. c.c_cpu) 0. traced in
        let per_event cs = median (List.map (fun c -> c.c_cpu /. float_of_int (max 1 c.c_events)) cs) in
        let classes =
          List.concat
            (Array.to_list
               (Array.mapi
                  (fun k name ->
                    [
                      (name ^ ".calls_per_sim_s", Num (float_of_int acc.calls.(k) /. sim));
                      (name ^ ".cpu_ms_per_sim_s", Num (1000. *. acc.cpu_s.(k) /. sim));
                      (name ^ ".minor_kwords_per_sim_s", Num (acc.words.(k) /. 1000. /. sim));
                    ])
                  class_names))
        in
        classes
        @ [
            ( "engine.events_per_sim_s",
              Num
                (float_of_int (List.fold_left (fun a c -> a + c.c_events) 0 chunks)
                /. spec.window_s) );
            ("engine.max_pending", Int stats.Engine.max_pending);
            ( "gc.minor_mwords_per_sim_s",
              Num ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6 /. spec.window_s) );
            ( "gc.major_mwords_per_sim_s",
              Num ((gc1.Gc.major_words -. gc0.Gc.major_words) /. 1e6 /. spec.window_s) );
            ( "trace.coverage_share",
              Num (Array.fold_left ( +. ) 0. acc.cpu_s /. tcpu) );
            ("trace.overhead_share", Num ((per_event traced /. per_event untraced) -. 1.));
          ]
        @ membership_layer
      end
    in
    let fingerprint =
      [
        ("events", Int stats.Engine.events);
        ("max_pending", Int stats.Engine.max_pending);
        ("routing_bytes", Int routing_bytes);
        ("membership_bytes", Int membership_bytes);
        ("dgrams_sent", Int sent);
        ("dgrams_delivered", Int delivered);
        ("joins_admitted", Int (List.length join_lat));
      ]
      @ (if mode = Traced then
           ("membership_msgs_per_join", Num msgs_per_join)
           :: Array.to_list
                (Array.mapi
                   (fun k name -> (name ^ ".minor_words", Num acc.words.(k)))
                   class_names)
           @ Array.to_list
               (Array.mapi (fun k name -> (name ^ ".calls", Int acc.calls.(k))) class_names)
         else [])
    in
    print_json
      (Obj
         [
           ("setup", setup_json s);
           ("e2e", Obj e2e);
           ("samples", Obj samples);
           ("layers", Obj layers);
           ("fingerprint", Obj fingerprint);
           ("attempted", Int (sent + n_join));
           ("checks", checks_json ());
         ])
  end
