open Apor_util
module Config = Apor_overlay_core.Config
module Cluster = Apor_overlay.Cluster
module Udp = Apor_deploy.Udp_runtime
module Node_core = Apor_overlay_core.Node_core
module Host = Apor_dataplane.Host
module Driver = Apor_dataplane.Driver
module Collector = Apor_trace.Collector
module Oracle = Apor_trace.Oracle
module Event = Apor_trace.Event

type outcome = {
  score : Score.t;
  violations : Oracle.violation list;
  passed : bool;
}

(* Metric accumulation over the live stream.  The ring wraps long before a
   scenario ends (engine events dominate), so latency and failover metrics
   are gathered by subscription — the same pairing rules as
   [Apor_trace.Query], which only sees the retained tail. *)
module Acc = struct
  type t = {
    computed : (int * int, float) Hashtbl.t;  (* (server, client) -> sent at *)
    last_sample : (int * int, float) Hashtbl.t;
    mutable rec_latencies : float list;
    open_failovers : (int * int, float) Hashtbl.t;  (* (node, dst) -> started *)
    mutable failover_durations : float list;
    mutable failover_count : int;
  }

  let create () =
    {
      computed = Hashtbl.create 256;
      last_sample = Hashtbl.create 256;
      rec_latencies = [];
      open_failovers = Hashtbl.create 32;
      failover_durations = [];
      failover_count = 0;
    }

  let observe acc (tv : Collector.timed) =
    match tv.event with
    | Event.Rec_computed { server; client; _ } ->
        Hashtbl.replace acc.computed (server, client) tv.time
    | Event.Rec_applied { node; server; local = false; _ } -> (
        match Hashtbl.find_opt acc.computed (server, node) with
        | Some tc ->
            (* entries of one round-two message apply at one instant;
               collapse them into a single latency sample *)
            if Hashtbl.find_opt acc.last_sample (server, node) <> Some tv.time then begin
              Hashtbl.replace acc.last_sample (server, node) tv.time;
              acc.rec_latencies <- (tv.time -. tc) :: acc.rec_latencies
            end
        | None -> ())
    | Event.Failover_started { node; dst; _ } ->
        acc.failover_count <- acc.failover_count + 1;
        (match Hashtbl.find_opt acc.open_failovers (node, dst) with
        | Some t0 -> acc.failover_durations <- (tv.time -. t0) :: acc.failover_durations
        | None -> ());
        Hashtbl.replace acc.open_failovers (node, dst) tv.time
    | Event.Failover_stopped { node; dst; _ } -> (
        match Hashtbl.find_opt acc.open_failovers (node, dst) with
        | Some t0 ->
            Hashtbl.remove acc.open_failovers (node, dst);
            acc.failover_durations <- (tv.time -. t0) :: acc.failover_durations
        | None -> ())
    | _ -> ()

  let subscribe acc collector = Collector.subscribe collector (fun tv -> observe acc tv)
end

(* Light background user workload every chaos run carries: its end-to-end
   loss localizes the damage the availability probes only sample. *)
let workload_spec =
  { Apor_dataplane.Workload.default with Apor_dataplane.Workload.rate_pps = 50.; payload_bytes = 32 }

let user_loss_window_s = 10. (* scenario seconds *)

let user_loss_of ~metrics ~time_scale ~t1 =
  let module M = Apor_dataplane.Metrics in
  if M.sent metrics = 0 then None
  else
    let worst = M.worst_window metrics in
    Some
      {
        Score.user_sent = M.sent metrics;
        user_delivered = M.delivered metrics;
        loss_overall = M.loss_overall metrics;
        worst_window_loss = Option.map fst worst;
        worst_window_t0 = Option.map (fun (_, w0) -> w0 /. time_scale) worst;
        (* payload per scenario second: wall goodput scaled back up *)
        goodput_kbps = M.goodput_kbps metrics ~t1 *. time_scale;
      }

(* Availability sampling plan: each fault window is probed just before
   injection, twice inside (the during figure is the worst of the two),
   and once the grace period after it clears. *)
type probe = { widx : int; which : [ `Before | `During | `After ]; time : float }

let probes_of (scn : Scenario.t) =
  List.concat
    (List.mapi
       (fun widx ev ->
         let t0 = ev.Scenario.at and t1 = Scenario.clears_at ev in
         let dur = t1 -. t0 in
         [
           { widx; which = `Before; time = Float.max 0. (t0 -. 1.0) };
           { widx; which = `During; time = t0 +. (0.5 *. dur) };
           { widx; which = `During; time = t0 +. (0.9 *. dur) };
           { widx; which = `After; time = Float.min scn.horizon_s (t1 +. scn.grace_s) };
         ])
       scn.events)
  |> List.stable_sort (fun a b -> compare a.time b.time)

(* What one runtime adds to the shared run body beyond its {!Host}. *)
type runtime = {
  name : string;
  time_scale : float;  (** run seconds per scenario second *)
  host : Host.t;
  agenda : (float * Injector.action) list;
      (** actions the body applies between runtime segments, in run
          seconds ([] when the runtime schedules them itself) *)
  apply : Injector.action -> unit;
  available : now:float -> src:int -> dst:int -> bool;
      (** Would a packet get through along the current route right now? *)
  transport : unit -> Score.transport option;
}

(* The trace, the recording oracle and the metric subscriber, made before
   the runtime so they see its first event. *)
let observe config =
  let trace, oracle = Apor_dataplane.Run.observe config in
  let acc = Acc.create () in
  Acc.subscribe acc trace;
  (trace, oracle, acc)

(* The one run body: background workload, one agenda of injector actions
   and availability probes (actions first on ties), then staleness, view
   agreement, joins and conservation at the horizon. *)
let run_on rt ~(scn : Scenario.t) ~config ~trace ~oracle ~(acc : Acc.t) ~progress =
  let host = rt.host and time_scale = rt.time_scale in
  let metrics =
    Apor_dataplane.Metrics.create ~window_s:(user_loss_window_s *. time_scale) ~t0:(host.now ())
  in
  let driver = Driver.attach host ~spec:workload_spec ~seed:scn.seed ~metrics ~trace () in
  let pairs live f =
    List.iter (fun src -> List.iter (fun dst -> if src <> dst then f src dst) live) live
  in
  let availability ~time =
    (* Only members alive at this instant count: a pending joiner or a
       permanently killed node has no pairs to be unavailable. *)
    let now = host.now () in
    let ok = ref 0 and total = ref 0 in
    pairs (Scenario.live_at scn time) (fun src dst ->
        incr total;
        if rt.available ~now ~src ~dst then incr ok);
    if !total = 0 then 1. else float_of_int !ok /. float_of_int !total
  in
  let nwin = List.length scn.events in
  let before = Array.make nwin 1. in
  let during = Array.make nwin 1. in
  let after = Array.make nwin 1. in
  let agenda =
    List.map (fun (t, a) -> (t, `Action a)) rt.agenda
    @ List.map (fun p -> (p.time *. time_scale, `Probe p)) (probes_of scn)
  in
  let rank = function `Action _ -> 0 | `Probe _ -> 1 in
  List.iter
    (fun (time, item) ->
      if time > host.now () then host.run_until time;
      match item with
      | `Action a ->
          progress (Format.asprintf "t=%7.2fs %a" (host.now ()) Injector.pp_action a);
          rt.apply a
      | `Probe p ->
          let a = availability ~time:p.time in
          (match p.which with
          | `Before -> before.(p.widx) <- a
          | `During -> during.(p.widx) <- Float.min during.(p.widx) a
          | `After -> after.(p.widx) <- a);
          progress
            (Printf.sprintf "t=%8.1f avail=%.4f (window %d %s)" p.time a p.widx
               (match p.which with
               | `Before -> "before"
               | `During -> "during"
               | `After -> "after")))
    (List.stable_sort (fun (ta, xa) (tb, xb) -> compare (ta, rank xa) (tb, rank xb)) agenda);
  host.run_until (scn.horizon_s *. time_scale);
  let now = host.now () in
  let live_h = Scenario.live_at scn scn.horizon_s in
  let staleness_samples = ref [] in
  let recovered = ref 0 in
  pairs live_h (fun src dst ->
      match host.freshness ~now ~src ~dst with
      | Some age ->
          staleness_samples := age :: !staleness_samples;
          if age <= Config.staleness_s config then incr recovered
      | None -> ());
  Oracle.check_view_agreement oracle ~now ~grace_s:(scn.grace_s *. time_scale) ~live:live_h;
  let joins_admitted =
    List.length
      (List.filter
         (fun (_, j) ->
           match host.current_view j with
           | Some v -> Apor_overlay_core.View.contains_port v j
           | None -> false)
         (Scenario.joins scn))
  in
  Oracle.check_traffic oracle ~n:host.accounted_ports ~accounted:host.accounted_bytes ~now;
  Driver.stop driver;
  Oracle.check_datagrams oracle ~sent:(Driver.sent driver) ~delivered:(Driver.delivered driver)
    ~now;
  (* A violation is excused while a fault is active and for one grace
     window after it clears (times here are in run units — wall seconds
     on udp — like the oracle's). *)
  let excused =
    List.map
      (fun ev ->
        ( ev.Scenario.at *. time_scale,
          (Scenario.clears_at ev *. time_scale) +. (scn.grace_s *. time_scale) ))
      scn.events
  in
  let to_scn t = t /. time_scale in
  let summarize_scaled samples = Stats.summarize (List.rev_map to_scn samples) in
  let m = List.length live_h in
  let score =
    {
      Score.scenario = scn.name;
      runtime = rt.name;
      n = scn.n;
      seed = scn.seed;
      time_scale;
      horizon_s = scn.horizon_s;
      windows =
        List.mapi
          (fun widx ev ->
            {
              Score.fault = Format.asprintf "%a" Scenario.pp_fault ev.Scenario.fault;
              t0 = ev.Scenario.at;
              t1 = Scenario.clears_at ev;
              avail_before = before.(widx);
              avail_during = during.(widx);
              avail_after = after.(widx);
            })
          scn.events;
      failover_count = acc.failover_count;
      failover_s = summarize_scaled acc.failover_durations;
      rec_latency_s = summarize_scaled acc.rec_latencies;
      staleness_s = Stats.summarize (List.map to_scn !staleness_samples);
      violations_total = Oracle.violation_count oracle;
      violations_out_of_grace = List.length (Oracle.violations_outside oracle ~windows:excused);
      pairs_total = m * (m - 1);
      pairs_recovered = !recovered;
      oracle_checks = Oracle.recommendations_checked oracle + Oracle.applications_checked oracle;
      joins_requested = List.length (Scenario.joins scn);
      joins_admitted;
      user_loss = user_loss_of ~metrics ~time_scale ~t1:now;
      transport = rt.transport ();
    }
  in
  {
    score;
    violations = Oracle.violations oracle;
    passed = Score.passed score ~require_recovery:scn.require_recovery;
  }

(* --- simulator ---------------------------------------------------------- *)

let run_sim ?params ?(progress = fun _ -> ()) (scn : Scenario.t) =
  match Scenario.validate scn with
  | Error _ as e -> e
  | Ok () ->
      let config = Config.quorum_default in
      let topo = Apor_topology.Internet.generate ?params ~seed:scn.seed ~n:scn.n () in
      let trace, oracle, acc = observe config in
      let membership =
        if Scenario.uses_membership scn then
          Cluster.Dynamic { initial = scn.members; rtt_ms = 40. }
        else if Scenario.uses_coordinator scn then Cluster.Coordinator { rtt_ms = 40. }
        else Cluster.Static
      in
      let cluster =
        Cluster.create ~config ~rtt_ms:topo.Apor_topology.Internet.rtt_ms
          ~loss:topo.Apor_topology.Internet.loss ~membership ~trace ~seed:scn.seed ()
      in
      (* the injector's actions run as engine timers *)
      Injector.install_sim (Cluster.engine cluster)
        ?coordinator_port:(Cluster.coordinator_port cluster)
        ~on_join:(Cluster.join_node cluster) scn;
      Cluster.start cluster;
      let rt =
        {
          name = "sim";
          time_scale = 1.;
          host = Host.of_cluster cluster;
          agenda = [];
          apply = ignore;
          available = (fun ~now:_ ~src ~dst -> Cluster.route_ok cluster ~src ~dst);
          transport = (fun () -> None);
        }
      in
      Ok (run_on rt ~scn ~config ~trace ~oracle ~acc ~progress)

(* --- real UDP ----------------------------------------------------------- *)

let default_time_scale =
  Config.deploy_local.Config.routing_interval_s
  /. Config.quorum_default.Config.routing_interval_s

(* A crashed member stays in the denominator — its pairs are unavailable,
   not out of scope. *)
let udp_available udp inj ~now ~src ~dst =
  let up a b = not (Injector.Udp.link_blocked inj a b) in
  Udp.node_alive udp src && Udp.node_alive udp dst
  &&
  match Node_core.best_hop (Udp.node_core udp src) ~now ~dst_port:dst with
  | None -> up src dst
  | Some hop when hop = dst || hop = src -> up src dst
  | Some hop -> Udp.node_alive udp hop && up src hop && up hop dst

let udp_transport udp =
  let n = Udp.n udp in
  let stats = Udp.stats udp in
  let over_links field =
    let sum = ref 0 in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then sum := !sum + field (Udp.link_stats udp ~src ~dst)
      done
    done;
    !sum
  in
  Some
    {
      Score.datagrams_sent = stats.Udp.datagrams_sent;
      datagrams_received = stats.Udp.datagrams_received;
      send_retries = stats.Udp.send_retries;
      frames_dropped = stats.Udp.frames_dropped;
      dropped_overflow = over_links (fun ls -> ls.Udp.dropped_overflow);
      dropped_refused = over_links (fun ls -> ls.Udp.dropped_refused);
      dropped_injected = over_links (fun ls -> ls.Udp.dropped_injected);
      undecodable = List.fold_left (fun sum i -> sum + Udp.undecodable udp i) 0 (List.init n Fun.id);
    }

let run_udp ?(base_port = 9300) ?(time_scale = default_time_scale)
    ?(progress = fun _ -> ()) (scn : Scenario.t) =
  match Scenario.validate scn with
  | Error _ as e -> e
  | Ok () when Scenario.uses_coordinator scn ->
      Error "coordinator outages need the simulator: the UDP runtime has no coordinator"
  | Ok () -> (
      let config = Config.deploy_local in
      let membership =
        if Scenario.uses_membership scn then `Dynamic scn.Scenario.members else `Static
      in
      let scaled = Scenario.scale scn time_scale in
      let trace, oracle, acc = observe config in
      match Udp.create ~config ~n:scn.n ~membership ~base_port ~trace ~seed:scn.seed () with
      | exception Unix.Unix_error (err, fn, _) ->
          Error (Printf.sprintf "sockets unavailable (%s in %s)" (Unix.error_message err) fn)
      | udp ->
          Fun.protect
            ~finally:(fun () -> Udp.close udp)
            (fun () ->
              let inj = Injector.Udp.create scaled in
              Injector.Udp.attach inj udp;
              Udp.start udp;
              let rt =
                {
                  name = "udp";
                  time_scale;
                  host = Host.of_udp udp;
                  agenda = Injector.timeline scaled;
                  apply = Injector.Udp.apply inj udp;
                  available = udp_available udp inj;
                  transport = (fun () -> udp_transport udp);
                }
              in
              Ok (run_on rt ~scn ~config ~trace ~oracle ~acc ~progress)))
