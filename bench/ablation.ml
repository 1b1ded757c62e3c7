(* Ablations of the design choices DESIGN.md calls out:

   1. the halved routing interval (15 s vs RON's 30 s) — bandwidth vs
      freshness trade-off across a sweep of intervals;
   2. the 3r staleness window at rendezvous servers — freshness tails under
      packet loss with a 1r window instead;
   3. uniformly random failover choice versus deterministic first-candidate
      — load concentration across the destination's row/column pool. *)

open Apor_util
open Apor_quorum
open Apor_overlay
open Apor_overlay_core

let section title =
  Printf.printf "\n==================== %s ====================\n" title

let lossy_cluster ~config ~n ~loss_rate ~seed =
  let rtt = Array.make_matrix n n 80. in
  for i = 0 to n - 1 do
    rtt.(i).(i) <- 0.
  done;
  let loss = Array.make_matrix n n loss_rate in
  for i = 0 to n - 1 do
    loss.(i).(i) <- 0.
  done;
  Cluster.create ~config ~rtt_ms:rtt ~loss ~seed ()

let freshness_stats ~cluster ~t0 ~t1 =
  let sampler = Metrics.Freshness.install ~cluster ~interval:30. ~t0 ~t1 () in
  Cluster.run_until cluster t1;
  let summaries = Metrics.Freshness.per_pair_summaries sampler in
  let medians = List.map (fun s -> s.Metrics.median) summaries in
  let p97s = List.map (fun s -> s.Metrics.p97) summaries in
  (Stats.median medians, Stats.median p97s)

let routing_interval_sweep ~seed =
  section "Ablation 1: routing interval (bandwidth vs freshness), n=49, 2% loss";
  let n = 49 in
  Printf.printf "# r_seconds routing_kbps median_freshness p97_freshness\n";
  List.iter
    (fun r ->
      let config = Config.with_routing_interval Config.quorum_default r in
      let cluster = lossy_cluster ~config ~n ~loss_rate:0.02 ~seed in
      Cluster.start cluster;
      let t0 = 120. +. (4. *. r) and t1 = 120. +. (4. *. r) +. 600. in
      let median, p97 = freshness_stats ~cluster ~t0 ~t1 in
      let kbps =
        Stats.mean (List.init n (fun node -> Cluster.routing_kbps cluster ~node ~t0 ~t1))
      in
      Printf.printf "%.1f %.2f %.1f %.1f\n%!" r kbps median p97)
    [ 7.5; 15.; 30.; 60. ];
  print_endline
    "(the paper's r=15 costs twice the bandwidth of r=30 but keeps recommendation\n\
     freshness comparable to RON's full-mesh at r=30 — Section 4.1's compensation)"

let staleness_window ~seed =
  section "Ablation 2: rendezvous staleness window under 10% loss, n=49";
  let n = 49 in
  Printf.printf "# windows median_freshness p97_freshness\n";
  List.iter
    (fun windows ->
      let config = { Config.quorum_default with Config.staleness_windows = windows } in
      let cluster = lossy_cluster ~config ~n ~loss_rate:0.10 ~seed in
      Cluster.start cluster;
      let median, p97 = freshness_stats ~cluster ~t0:240. ~t1:1440. in
      Printf.printf "%d %.1f %.1f\n%!" windows median p97)
    [ 1; 2; 3 ];
  print_endline
    "(a 1r window drops a client from the recommendation set after a single\n\
     lost announcement; the paper's 3r window smooths over loss bursts)"

let failover_spread ~seed =
  section "Ablation 3: random vs deterministic failover choice (load spread)";
  let n = 144 in
  let grid = Grid.build n in
  let dst = n / 2 in
  let trials = 5000 in
  let load_of choose =
    let counts = Hashtbl.create 32 in
    for trial = 0 to trials - 1 do
      let self = trial mod n in
      if self <> dst then begin
        match choose ~self with
        | Some f ->
            Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
        | None -> ()
      end
    done;
    let loads = Hashtbl.fold (fun _ c acc -> float_of_int c :: acc) counts [] in
    (Stats.maximum loads, Stats.mean loads)
  in
  let rng = Rng.make ~seed in
  let random ~self =
    Failover.choose ~rng grid ~self ~dst ~excluded:Apor_util.Nodeid.Set.empty
  in
  let deterministic ~self =
    match Failover.candidates grid ~self ~dst ~excluded:Apor_util.Nodeid.Set.empty with
    | [] -> None
    | first :: _ -> Some first
  in
  let rmax, rmean = load_of random in
  let dmax, dmean = load_of deterministic in
  let t = Texttable.create ~header:[ "policy"; "max load"; "mean load"; "max/mean" ] in
  Texttable.add_row t
    [ "random (paper)"; Printf.sprintf "%.0f" rmax; Printf.sprintf "%.0f" rmean; Printf.sprintf "%.1fx" (rmax /. rmean) ];
  Texttable.add_row t
    [ "first-candidate"; Printf.sprintf "%.0f" dmax; Printf.sprintf "%.0f" dmean; Printf.sprintf "%.1fx" (dmax /. dmean) ];
  Texttable.print t;
  print_endline
    "(deterministic choice funnels every concurrent failover onto one node;\n\
     uniform random choice keeps the worst-loaded candidate near the mean)"


let relay_footnote8 ~seed =
  section "Ablation 4: footnote-8 relaying under rendezvous link failures";
  (* 9-node grid; at t=200 node 0 loses its links to both of node 8's
     rendezvous servers and to node 8 itself (the scenario of Figure 4b).
     With relaying, announcements ride temporary one-hops and the exchange
     never breaks; without it, a failover rendezvous must be recruited. *)
  let n = 9 in
  let rtt = Array.make_matrix n n 100. in
  for i = 0 to n - 1 do
    rtt.(i).(i) <- 0.
  done;
  Printf.printf "# relay  worst_freshness(0->8)  failovers_used\n";
  List.iter
    (fun relay ->
      let config = { Config.quorum_default with Config.relay_link_state = relay } in
      let cluster = Cluster.create ~config ~rtt_ms:rtt ~seed () in
      Apor_topology.Scenario.install ~engine:(Cluster.engine cluster)
        [
          (200., Apor_topology.Scenario.Link_down (0, 2));
          (200., Apor_topology.Scenario.Link_down (0, 6));
          (200., Apor_topology.Scenario.Link_down (0, 8));
        ];
      Cluster.start cluster;
      let worst = ref 0. in
      let rec sample t =
        if t <= 500. then begin
          Cluster.run_until cluster t;
          (match Cluster.freshness cluster ~src:0 ~dst:8 with
          | Some age -> worst := Float.max !worst age
          | None -> ());
          sample (t +. 5.)
        end
      in
      sample 200.;
      let failovers =
        match Node.quorum_router (Cluster.node cluster 0) with
        | Some router -> Router.active_failover_count router
        | None -> 0
      in
      Printf.printf "%-6b %6.0f s %22d\n" relay !worst failovers)
    [ false; true ];
  print_endline
    "(relaying keeps recommendations flowing through temporary one-hops, so\n\
     staleness never spikes and no failover rendezvous is needed)"

let run ~seed =
  routing_interval_sweep ~seed;
  staleness_window ~seed;
  failover_spread ~seed;
  relay_footnote8 ~seed
