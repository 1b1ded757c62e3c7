(* Bechamel microbenchmarks of the computational kernels: grid
   construction, the best-hop scan (over float vectors and over link-state
   cells), a full rendezvous round-two batch, the wire codecs and the
   one-shot synchronous protocol — plus the protocol scaling runs (delta
   vs full-table announcements across n) that back PERFORMANCE.md and,
   with [--json], the BENCH_core.json baseline. *)

open Bechamel
open Toolkit
open Apor_util
open Apor_quorum
open Apor_linkstate
open Apor_core

let section title =
  Printf.printf "\n==================== %s ====================\n" title

let matrix ~n ~seed =
  let rng = Rng.make ~seed in
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let c = 1. +. Rng.float rng 500. in
      m.(i).(j) <- c;
      m.(j).(i) <- c
    done
  done;
  Costmat.of_arrays m

let grid_tests =
  List.map
    (fun n ->
      Test.make
        ~name:(Printf.sprintf "grid-build/%d" n)
        (Staged.stage (fun () -> ignore (Grid.build n))))
    [ 64; 256; 1024 ]

let best_hop_tests =
  List.map
    (fun n ->
      let m = matrix ~n ~seed:1 in
      let from_src = Costmat.row m 0 in
      let to_dst = Costmat.column m (n - 1) in
      Test.make
        ~name:(Printf.sprintf "best-hop/%d" n)
        (Staged.stage (fun () ->
             ignore (Best_hop.best ~src:0 ~dst:(n - 1) ~cost_from_src:from_src ~cost_to_dst:to_dst))))
    [ 64; 256; 1024 ]

let snapshot_of_matrix m ~n i =
  Snapshot.create ~owner:i
    (Array.init n (fun j ->
         let c = Costmat.get m i j in
         if i = j then Entry.self
         else if Float.is_finite c then Entry.make ~latency_ms:c ~loss:0. ~alive:true
         else Entry.unreachable))

(* The same scan as [best-hop], read straight off two link-state rows'
   16-bit latency cells: the round-two cache's miss path. *)
let best_hop_cells_tests =
  List.map
    (fun n ->
      let m = matrix ~n ~seed:1 in
      let src = snapshot_of_matrix m ~n 0 and dst = snapshot_of_matrix m ~n (n - 1) in
      Test.make
        ~name:(Printf.sprintf "best-hop-cells/%d" n)
        (Staged.stage (fun () -> ignore (Best_hop.best_rows Metric.Latency ~src ~dst))))
    [ 64; 256; 1024 ]

let round2_tests =
  List.map
    (fun n ->
      let m = matrix ~n ~seed:2 in
      let grid = Grid.build n in
      let clients = List.map (snapshot_of_matrix m ~n) (Grid.rendezvous_clients grid 0) in
      match clients with
      | [] -> Test.make ~name:"round2/empty" (Staged.stage ignore)
      | client :: others ->
          Test.make
            ~name:(Printf.sprintf "round2-batch/%d" n)
            (Staged.stage (fun () ->
                 ignore (Rendezvous.recommendations_for ~metric:Metric.Latency ~client ~others))))
    [ 64; 256 ]

let codec_tests =
  let entries =
    Array.init 256 (fun i ->
        if i mod 7 = 0 then Entry.unreachable
        else Entry.make ~latency_ms:(float_of_int (i * 3)) ~loss:0.01 ~alive:true)
  in
  let encoded = Wire.encode_entries entries in
  [
    Test.make ~name:"wire-encode/256" (Staged.stage (fun () -> ignore (Wire.encode_entries entries)));
    Test.make ~name:"wire-decode/256"
      (Staged.stage (fun () -> ignore (Wire.decode_entries encoded)));
  ]

let protocol_tests =
  List.map
    (fun n ->
      let m = matrix ~n ~seed:3 in
      let grid = Grid.build n in
      Test.make
        ~name:(Printf.sprintf "protocol-run/%d" n)
        (Staged.stage (fun () -> ignore (Protocol.run ~grid m))))
    [ 64; 144 ]

(* --- Protocol scaling runs: delta vs full-table baseline ------------------ *)

(* One simulated deployment, measured over a steady-state window.  The
   warmup [t0] skips the first full-table announcements so the delta runs
   are priced at their steady-state rate, which is what the closed-form
   model comparison in PERFORMANCE.md cares about. *)

type scale_run = {
  n : int;
  mode : string; (* "delta" (default config) or "full" (full-table baseline) *)
  routing_bytes_per_node_s : float;
  rec_latency_median_s : float;
  wall_s : float;
  wall_s_per_sim_s : float;
  (* Engine profiling counters — the regression baseline for future perf
     work (events/s is the simulator's throughput headline). *)
  events : int;
  events_per_wall_s : float;
  max_pending : int;
  drops : int;
  gc_minor_words : float;
  gc_major_words : float;
}

let window_t0 = 120.
let window_t1 = 240.

let scale_once ~config ~mode ~n ~seed =
  let world = Apor_topology.Internet.generate ~seed ~n () in
  let gc0 = Gc.quick_stat () in
  let wall0 = Unix.gettimeofday () in
  let c =
    Apor_overlay.Cluster.create ~config ~rtt_ms:world.Apor_topology.Internet.rtt_ms
      ~loss:world.Apor_topology.Internet.loss ~seed ()
  in
  Apor_overlay.Cluster.start c;
  Apor_overlay.Cluster.run_until c window_t1;
  let wall_s = Unix.gettimeofday () -. wall0 in
  let gc1 = Gc.quick_stat () in
  let stats = Apor_overlay.Cluster.engine_stats c in
  let per_node =
    List.init n (fun node ->
        Apor_overlay.Cluster.routing_kbps c ~node ~t0:window_t0 ~t1:window_t1)
  in
  (* routing_kbps is kilobits/s of routing-class traffic; x125 = bytes/s. *)
  let routing_bytes_per_node_s = Stats.mean per_node *. 125. in
  let rng = Rng.make ~seed:(seed + 7) in
  let samples = ref [] in
  let wanted = min 400 (n * (n - 1)) in
  let attempts = ref 0 in
  while List.length !samples < wanted && !attempts < wanted * 8 do
    incr attempts;
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst then
      match Apor_overlay.Cluster.freshness c ~src ~dst with
      | Some f -> samples := f :: !samples
      | None -> ()
  done;
  let rec_latency_median_s =
    match !samples with [] -> nan | l -> Stats.median l
  in
  {
    n;
    mode;
    routing_bytes_per_node_s;
    rec_latency_median_s;
    wall_s;
    wall_s_per_sim_s = wall_s /. window_t1;
    events = stats.Apor_sim.Engine.events;
    events_per_wall_s = float_of_int stats.Apor_sim.Engine.events /. wall_s;
    max_pending = stats.Apor_sim.Engine.max_pending;
    drops = stats.Apor_sim.Engine.drops;
    gc_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    gc_major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
  }

(* Oracle-verified run: delta + incremental rendezvous with PlanetLab-style
   churn, every recommendation checked for one-hop optimality against the
   mirrored tables.  Separate from the timing runs so tracing overhead
   never pollutes the wall-clock numbers. *)

type oracle_run = {
  o_n : int;
  o_sim_s : float;
  violations : int;
  recommendations_checked : int;
  rec_gaps : int;
}

let oracle_once ~n ~seed =
  let open Apor_trace in
  let config = Apor_overlay_core.Config.quorum_default in
  let world = Apor_topology.Internet.generate ~seed ~n () in
  let tr = Collector.create () in
  let oracle =
    Oracle.create ~raise_on_violation:false ~metric:config.Apor_overlay_core.Config.metric
      ~staleness_s:(Apor_overlay_core.Config.staleness_s config) ()
  in
  Oracle.attach oracle tr;
  let c =
    Apor_overlay.Cluster.create ~config ~rtt_ms:world.Apor_topology.Internet.rtt_ms
      ~loss:world.Apor_topology.Internet.loss ~trace:tr ~seed ()
  in
  let (_ : Apor_topology.Failures.t) =
    Apor_topology.Failures.install
      ~engine:(Apor_overlay.Cluster.engine c)
      ~profile:Apor_topology.Failures.planetlab ~seed ()
  in
  Apor_overlay.Cluster.start c;
  Apor_overlay.Cluster.run_until c window_t1;
  {
    o_n = n;
    o_sim_s = window_t1;
    violations = Oracle.violation_count oracle;
    recommendations_checked = Oracle.recommendations_checked oracle;
    rec_gaps = Oracle.rec_gaps oracle;
  }

(* Run [tasks] on [jobs] domains (the calling domain is one of them), each
   worker pulling the next unstarted task off a shared counter.  Results
   come back in task order, so output stays deterministic whatever the
   interleaving.  Each sweep point is an independent deterministic
   deployment — separate RNGs, network, cluster — so nothing is shared
   between domains but the counter and the results array (disjoint
   writes). *)
let run_jobs ~jobs (tasks : (unit -> 'a) array) : 'a array =
  let total = Array.length tasks in
  let results = Array.make total None in
  let next = Atomic.make 0 in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < total then begin
      results.(i) <- Some (tasks.(i) ());
      worker ()
    end
  in
  let helpers =
    List.init
      (min (jobs - 1) (total - 1))
      (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join helpers;
  Array.map (function Some r -> r | None -> assert false) results

(* Progress lines from concurrent sweep points would interleave mid-line
   without this. *)
let print_lock = Mutex.create ()

let progress fmt =
  Printf.ksprintf
    (fun s ->
      Mutex.lock print_lock;
      print_string s;
      flush stdout;
      Mutex.unlock print_lock)
    fmt

let write_json ~path ~seed ~jobs ~runs ~oracle ~(dataplane : Dataplane.sim_point)
    ~(membership : Membership.point list) =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"bench\": \"core-scaling\",\n";
  p "  \"generated_by\": \"dune exec bench/main.exe -- --only micro --json %s\",\n"
    (Filename.basename path);
  p "  \"seed\": %d,\n" seed;
  p "  \"jobs\": %d,\n" jobs;
  p "  \"window\": { \"t0_s\": %g, \"t1_s\": %g },\n" window_t0 window_t1;
  p "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      p
        "    { \"n\": %d, \"mode\": %S, \"routing_bytes_per_node_s\": %.2f,\n\
        \      \"rec_latency_median_s\": %.3f, \"wall_s\": %.3f, \
         \"wall_s_per_sim_s\": %.5f,\n\
        \      \"events\": %d, \"events_per_wall_s\": %.0f, \"max_pending\": %d, \
         \"drops\": %d,\n\
        \      \"gc_minor_words\": %.0f, \"gc_major_words\": %.0f }%s\n"
        r.n r.mode r.routing_bytes_per_node_s r.rec_latency_median_s r.wall_s
        r.wall_s_per_sim_s r.events r.events_per_wall_s r.max_pending r.drops
        r.gc_minor_words r.gc_major_words
        (if i = List.length runs - 1 then "" else ","))
    runs;
  p "  ],\n";
  p
    "  \"dataplane\": { \"n\": %d, \"sim_s\": %g, \"datagrams_sent\": %d, \
     \"datagrams_delivered\": %d, \"goodput_kbps\": %.2f, \"wall_s\": %.3f, \
     \"datagrams_per_wall_s\": %.0f },\n"
    dataplane.Dataplane.dp_n dataplane.Dataplane.dp_sim_s dataplane.Dataplane.dp_sent
    dataplane.Dataplane.dp_delivered dataplane.Dataplane.dp_goodput_kbps
    dataplane.Dataplane.dp_wall_s dataplane.Dataplane.dp_dgrams_per_wall_s;
  p "  \"membership\": [\n";
  List.iteri
    (fun i (m : Membership.point) ->
      p
        "    { \"n\": %d, \"mode\": %S, \"joiners\": %d, \"join_mean_s\": %.3f, \
         \"join_max_s\": %.3f,\n\
        \      \"msgs_per_join\": %.1f, \"bytes_per_join\": %.0f, \
         \"hot_node_msgs\": %.1f, \"hot_distinct\": %d }%s\n"
        m.Membership.m_n m.Membership.m_mode m.Membership.m_joiners
        m.Membership.m_join_mean_s m.Membership.m_join_max_s
        m.Membership.m_msgs_per_join m.Membership.m_bytes_per_join
        m.Membership.m_hot_node_msgs m.Membership.m_hot_distinct
        (if i = List.length membership - 1 then "" else ","))
    membership;
  p "  ],\n";
  p
    "  \"oracle\": { \"n\": %d, \"mode\": \"delta\", \"sim_s\": %g, \
     \"violations\": %d, \"recommendations_checked\": %d, \"rec_gaps\": %d }\n"
    oracle.o_n oracle.o_sim_s oracle.violations oracle.recommendations_checked
    oracle.rec_gaps;
  p "}\n";
  close_out oc

let scaling ?json ~quick ~jobs ~seed () =
  section "Protocol scaling: delta vs full-table announcements";
  Printf.printf
    "steady-state window [%g s, %g s]; bytes/node/s counts routing-class\n\
     traffic only (announcements, deltas, resyncs, recommendations).\n"
    window_t0 window_t1;
  let ns = if quick then [ 49; 144 ] else [ 49; 144; 400; 900 ] in
  let jobs = max 1 jobs in
  if jobs > 1 then Printf.printf "sweep points on %d domains\n%!" jobs;
  let full_config = Apor_overlay_core.Config.full_table Apor_overlay_core.Config.quorum_default in
  let points =
    List.concat_map
      (fun n ->
        [
          (n, "delta", Apor_overlay_core.Config.quorum_default); (n, "full", full_config);
        ])
      ns
  in
  let tasks =
    Array.of_list
      (List.map
         (fun (n, mode, config) () ->
           let r = scale_once ~config ~mode ~n ~seed in
           progress "n=%d %s done (%.1f B/node/s, %.0f events/s)\n" n mode
             r.routing_bytes_per_node_s r.events_per_wall_s;
           r)
         points)
  in
  let runs = Array.to_list (run_jobs ~jobs tasks) in
  let table =
    Texttable.create
      ~header:
        [
          "n";
          "mode";
          "routing B/node/s";
          "median rec latency";
          "wall s / sim s";
          "events/s";
        ]
  in
  List.iter
    (fun r ->
      Texttable.add_row table
        [
          string_of_int r.n;
          r.mode;
          Printf.sprintf "%.1f" r.routing_bytes_per_node_s;
          Printf.sprintf "%.1f s" r.rec_latency_median_s;
          Printf.sprintf "%.5f" r.wall_s_per_sim_s;
          Printf.sprintf "%.0f" r.events_per_wall_s;
        ])
    runs;
  Texttable.print table;
  let oracle_n = if quick then 144 else 400 in
  Printf.printf
    "\nverifying one-hop optimality at n=%d (delta + incremental cache,\n\
     PlanetLab churn, every recommendation checked)...\n%!"
    oracle_n;
  let oracle = oracle_once ~n:oracle_n ~seed in
  Printf.printf
    "oracle: %d violations over %d recommendations checked; %d recommendation gaps resynced\n"
    oracle.violations oracle.recommendations_checked oracle.rec_gaps;
  (match json with
  | None -> ()
  | Some path ->
      Printf.printf "\nmeasuring data-plane throughput for the baseline row...\n%!";
      let dataplane = Dataplane.measure_sim ~n:49 ~seed ~duration_s:60. in
      Printf.printf "measuring membership admission cost for the baseline rows...\n%!";
      let membership =
        [
          Membership.measure ~seed
            ~membership:(Apor_overlay.Cluster.Dynamic { initial = 49; rtt_ms = 40. }) ();
          Membership.measure ~seed
            ~membership:(Apor_overlay.Cluster.Coordinator { initial = 49; rtt_ms = 40. }) ();
        ]
      in
      write_json ~path ~seed ~jobs ~runs ~oracle ~dataplane ~membership;
      Printf.printf "\nwrote %s\n" path)

(* The scaling sweep runs before the Bechamel kernels: Bechamel forces
   thousands of major collections to stabilize its measurements, after
   which OCaml 5.1's major-GC pacing lags allocation for the rest of the
   process — the sweep's heap then grew several-fold (past 4.7 GB by the
   n = 400 full-table point, against 0.5 GB for that point alone). *)
let run ?json ?(jobs = 1) ~quick ~seed () =
  scaling ?json ~quick ~jobs ~seed ();
  section "Microbenchmarks (Bechamel, monotonic clock)";
  let tests =
    Test.make_grouped ~name:"apor"
      (grid_tests @ best_hop_tests @ best_hop_cells_tests @ round2_tests @ codec_tests
     @ protocol_tests)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
      rows := (name, estimate, r2) :: !rows)
    results;
  let table = Texttable.create ~header:[ "benchmark"; "time/run"; "r^2" ] in
  let human ns =
    if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (name, estimate, r2) ->
      Texttable.add_row table [ name; human estimate; Printf.sprintf "%.3f" r2 ])
    (List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows);
  Texttable.print table
