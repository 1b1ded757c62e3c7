(* The deployment experiment: one long 140-node run with PlanetLab-style
   failures, from which Figures 8, 10, 11, 12, 13 and 14 are all extracted —
   exactly how the paper's March 2008 deployment produced them. *)

open Apor_util
open Apor_overlay
open Apor_overlay_core
open Apor_topology
open Apor_analysis

let section title =
  Printf.printf "\n==================== %s ====================\n" title

type results = {
  n : int;
  duration : float;
  failure_sampler : Metrics.Failures.t;
  double_sampler : Metrics.Double_failures.t;
  freshness_sampler : Metrics.Freshness.t;
  cluster : Cluster.t;
  collector : Apor_trace.Collector.t option;
  t0 : float;
  t1 : float;
}

let run ~quick ~seed ~trace =
  let n = 140 in
  (* paper: 136 minutes of deployment; quick mode keeps the shape at 40 min *)
  let duration = if quick then 2400. else 8160. in
  let world = Internet.generate ~seed ~n () in
  let collector, sink =
    match trace with
    | None -> (None, None)
    | Some path ->
        let tr = Apor_trace.Collector.create ~capacity:(1 lsl 16) () in
        let oc = open_out path in
        (* protocol events only: engine events at 140 nodes would swamp
           the JSONL file thousands to one *)
        Apor_trace.Collector.set_sink ~kinds:Apor_trace.Event.Kind.protocol tr oc;
        (Some tr, Some oc)
  in
  let cluster =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:world.Internet.rtt_ms
      ~loss:world.Internet.loss ?trace:collector ~seed ()
  in
  let (_ : Failures.t) =
    Failures.install ~engine:(Cluster.engine cluster) ~profile:Failures.planetlab ~seed ()
  in
  let t0 = 300. (* past warmup: every node measured and routed *) in
  let t1 = t0 +. duration in
  let failure_sampler = Metrics.Failures.install ~cluster ~interval:60. ~t0 ~t1 () in
  let double_sampler = Metrics.Double_failures.install ~cluster ~interval:60. ~t0 ~t1 () in
  let freshness_sampler = Metrics.Freshness.install ~cluster ~interval:30. ~t0 ~t1 () in
  Cluster.start cluster;
  Printf.printf "running %d-node deployment for %.0f virtual minutes...\n%!" n (duration /. 60.);
  let wall0 = Unix.gettimeofday () in
  Cluster.run_until cluster t1;
  Printf.printf "(%.0f s of wall-clock time)\n%!" (Unix.gettimeofday () -. wall0);
  (match (sink, trace) with
  | Some oc, Some path ->
      Apor_trace.Collector.clear_sink (Option.get collector);
      close_out oc;
      Printf.printf "(protocol trace written to %s)\n%!" path
  | _ -> ());
  { n; duration; failure_sampler; double_sampler; freshness_sampler; cluster; collector; t0; t1 }

(* --- Figure 8: concurrent link failures per node ----------------------------- *)

let fig8 r =
  section "Figure 8: CDF of concurrent link failures per node";
  let mean = Metrics.Failures.mean_per_node r.failure_sampler in
  let max = Metrics.Failures.max_per_node r.failure_sampler in
  Printf.printf "# x=failures  nodes_with_mean<=x  nodes_with_max<=x\n";
  List.iter
    (fun (x, m, mx) -> Printf.printf "%.1f %d %d\n" x m mx)
    (Report.node_cdf_rows ~mean ~max ());
  (match (Report.percentile_summary mean, Report.percentile_summary max) with
  | Some sm, Some sx ->
      Printf.printf
        "\nmean concurrent failures: median node %.1f, p97 %.1f, worst %.1f (max line up to %.0f)\n"
        sm.Stats.p50 sm.Stats.p97 sm.Stats.max sx.Stats.max
  | _ -> ())

(* --- Figure 10: per-node routing traffic in deployment ------------------------- *)

let fig10 r =
  section "Figure 10: CDF of per-node routing traffic (deployment, with failures)";
  let mean =
    Array.init r.n (fun node -> Cluster.routing_kbps r.cluster ~node ~t0:r.t0 ~t1:r.t1)
  in
  let max =
    Array.init r.n (fun node ->
        Cluster.routing_max_window_kbps r.cluster ~node ~window:60. ~t0:r.t0 ~t1:r.t1)
  in
  Printf.printf "# x=kbps  nodes_with_mean<=x  nodes_with_max1min<=x\n";
  List.iter
    (fun (x, m, mx) -> Printf.printf "%.2f %d %d\n" x m mx)
    (Report.node_cdf_rows ~mean ~max ());
  let module B = Bandwidth in
  (match (Report.percentile_summary mean, Report.percentile_summary max) with
  | Some sm, Some sx ->
      Printf.printf
        "\nmean routing traffic %.1f kbps (theory %.1f, paper measured 13.5); no node's\n\
         1-min window exceeded %.1f kbps (paper: 17)\n"
        sm.Stats.mean
        (B.routing_bps B.Quorum ~n:r.n /. 1000.)
        sx.Stats.max
  | _ -> ())

(* --- Figure 11: double rendezvous failures -------------------------------------- *)

let fig11 r =
  section "Figure 11: CDF of destinations with double rendezvous failure";
  let mean = Metrics.Double_failures.mean_per_node r.double_sampler in
  let max = Metrics.Double_failures.max_per_node r.double_sampler in
  Printf.printf "# x=destinations  nodes_with_mean<=x  nodes_with_max<=x\n";
  List.iter
    (fun (x, m, mx) -> Printf.printf "%.1f %d %d\n" x m mx)
    (Report.node_cdf_rows ~mean ~max ());
  (match Report.percentile_summary mean with
  | Some s ->
      let below10 =
        Array.to_list mean |> List.filter (fun v -> v < 10.) |> List.length
      in
      Printf.printf
        "\nmedian node: %.1f double failures on average; %d/%d nodes (%.0f%%) below 10\n\
         (paper: median ~0, 98%% of nodes below 10)\n"
        s.Stats.p50 below10 r.n
        (100. *. float_of_int below10 /. float_of_int r.n)
  | None -> ())

(* --- Figures 12-14: route freshness ----------------------------------------------- *)

let print_freshness_rows summaries =
  Printf.printf "# x=seconds  median<=x  average<=x  p97<=x  max<=x\n";
  List.iter
    (fun row ->
      Printf.printf "%.0f %d %d %d %d\n" row.Report.x row.Report.median_le
        row.Report.average_le row.Report.p97_le row.Report.max_le)
    (Report.freshness_rows summaries ~xs:Report.freshness_axis)

let fig12 r =
  section "Figure 12: route freshness over all (src,dst) pairs";
  let summaries = Metrics.Freshness.per_pair_summaries r.freshness_sampler in
  Printf.printf "(%d pairs, sampled every 30 s)\n" (List.length summaries);
  print_freshness_rows summaries;
  let medians = List.map (fun s -> s.Metrics.median) summaries in
  (match Stats.summarize medians with
  | Some s ->
      Printf.printf
        "\ntypical pair's median freshness: %.1f s (paper: ~8 s); median of\n\
         per-pair maxima: %.1f s (paper: 30 s)\n"
        s.Stats.p50
        (Stats.median (List.map (fun s -> s.Metrics.max) summaries))
  | None -> ())

let fig13_14 r =
  let mean_failures = Metrics.Failures.mean_per_node r.failure_sampler in
  let indexed = Array.mapi (fun i v -> (i, v)) mean_failures in
  Array.sort (fun (_, a) (_, b) -> Float.compare a b) indexed;
  let well, well_f = indexed.(0) in
  let poor, poor_f = indexed.(Array.length indexed - 1) in
  section "Figure 13: freshness to all destinations, well-connected node";
  Printf.printf "node %d, %.1f concurrent link failures on average\n" well well_f;
  print_freshness_rows (Metrics.Freshness.per_destination_summaries r.freshness_sampler ~src:well);
  section "Figure 14: freshness to all destinations, poorly-connected node";
  Printf.printf "node %d, %.1f concurrent link failures on average\n" poor poor_f;
  print_freshness_rows (Metrics.Freshness.per_destination_summaries r.freshness_sampler ~src:poor)

let trace_summary r =
  match r.collector with
  | None -> ()
  | Some tr ->
      section "Trace summary (event stream over the measurement window)";
      Trace_report.print ~engine:(Cluster.engine_stats r.cluster) tr ~n:r.n ~t0:r.t0
        ~t1:r.t1

let all ~quick ~seed ?trace () =
  let r = run ~quick ~seed ~trace in
  fig8 r;
  fig10 r;
  fig11 r;
  fig12 r;
  fig13_14 r;
  trace_summary r
