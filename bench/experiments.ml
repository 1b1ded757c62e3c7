(* Stand-alone experiments: Figure 1, Figure 3, the configuration table,
   the theory checks (Theorem 1, Appendix A, closed-form bandwidth) and the
   Figure 9 scaling emulation. *)

open Apor_util
open Apor_quorum
open Apor_core
open Apor_overlay
open Apor_overlay_core
open Apor_topology

let section title =
  Printf.printf "\n==================== %s ====================\n" title

(* Random symmetric cost matrix with entries in [lo, lo+range). *)
let random_symmetric ~rng ~n ~lo ~range =
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let c = float_of_int (lo + Rng.int rng range) in
      m.(i).(j) <- c;
      m.(j).(i) <- c
    done
  done;
  Costmat.of_arrays m

(* --- Figure 1: one-hop detours on high-latency paths ----------------------- *)

let fig1 ~quick ~seed =
  section "Figure 1: RTT CDFs for high-latency pairs (synthetic PlanetLab)";
  let n = if quick then 180 else 359 in
  let world = Internet.generate ~seed ~n () in
  let m = world.Internet.rtt_ms in
  let threshold = 400. in
  (* for each high-latency pair, the sorted list of one-hop alternatives *)
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if m.(i).(j) > threshold then begin
        let alternatives = ref [] in
        for h = 0 to n - 1 do
          if h <> i && h <> j then alternatives := (m.(i).(h) +. m.(h).(j)) :: !alternatives
        done;
        let sorted = Array.of_list !alternatives in
        Array.sort Float.compare sorted;
        pairs := (m.(i).(j), sorted) :: !pairs
      end
    done
  done;
  let pairs = !pairs in
  let total = List.length pairs in
  Printf.printf "%d of %d pairs have direct RTT > %.0f ms\n" total (n * (n - 1) / 2) threshold;
  if total = 0 then print_endline "no high-latency pairs generated; increase n"
  else begin
    (* the paper's series: direct; best 1-hop; best remaining after removing
       the top q%% of alternatives *)
    let excluding q (_, sorted) =
      let k = int_of_float (ceil (q *. float_of_int (Array.length sorted))) in
      if k >= Array.length sorted then infinity else sorted.(k)
    in
    let series =
      [
        ("point-to-point", fun (direct, _) -> direct);
        ("excl-top-50%", fun p -> Float.min (fst p) (excluding 0.50 p));
        ("excl-top-3%", fun p -> Float.min (fst p) (excluding 0.03 p));
        ("best-1hop", fun (direct, sorted) -> Float.min direct sorted.(0));
      ]
    in
    let cdfs = List.map (fun (name, f) -> (name, Cdf.of_list (List.map f pairs))) series in
    Printf.printf "# fraction of paths with RTT <= x\n# x_ms %s\n"
      (String.concat " " (List.map fst cdfs));
    let xs = List.init 33 (fun i -> 200. +. (25. *. float_of_int i)) in
    List.iter
      (fun x ->
        Printf.printf "%.0f %s\n" x
          (String.concat " "
             (List.map (fun (_, c) -> Printf.sprintf "%.3f" (Cdf.fraction_le c x)) cdfs)))
      xs;
    (* the paper's headline comparisons at 400 ms *)
    let at name =
      let c = List.assoc name cdfs in
      100. *. Cdf.fraction_le c threshold
    in
    Printf.printf
      "\nAt the 400 ms mark: best 1-hop fixes %.0f%% of paths, excluding the top\n\
       3%% of intermediaries only %.0f%%, excluding the top half %.0f%% — random\n\
       intermediary selection misses nearly all latency detours (Section 2).\n"
      (at "best-1hop") (at "excl-top-3%") (at "excl-top-50%")
  end

(* --- Figure 2/3: the n=9 walk-through --------------------------------------- *)

let fig3 () =
  section "Figures 2-3: grid quorum and two-round protocol at n = 9";
  let n = 9 in
  let grid = Grid.build n in
  Format.printf "%a@." Grid.pp grid;
  let rng = Rng.make ~seed:3 in
  let m = random_symmetric ~rng ~n ~lo:20 ~range:400 in
  let { Protocol.routes; stats } = Protocol.run ~grid m in
  Printf.printf "\nNode 8 announced its link state to: %s\n"
    (String.concat ", " (List.map string_of_int (Grid.rendezvous_servers grid 8)));
  Printf.printf "\nBest-hop table node 8 obtained (Figure 3b):\n";
  let table = Texttable.create ~header:[ "Src"; "Dst"; "Best-hop"; "Cost (ms)" ] in
  for dst = 0 to n - 1 do
    if dst <> 8 then begin
      let choice = routes.(8).(dst) in
      Texttable.add_row table
        [
          "8";
          string_of_int dst;
          (if Best_hop.is_direct ~dst choice then "direct" else string_of_int choice.Best_hop.hop);
          Printf.sprintf "%.0f" choice.Best_hop.cost;
        ]
    end
  done;
  Texttable.print table;
  Printf.printf "\nMessages sent per node (Theorem 1 bound: %d): %s\n"
    (Protocol.max_messages_bound ~n)
    (String.concat ", " (Array.to_list (Array.map string_of_int stats.Protocol.messages_sent)))

(* --- Section 5: configuration table ------------------------------------------- *)

let table_config () =
  section "Section 5: configuration parameters";
  let row name f =
    [ name; f Config.ron_default; f Config.quorum_default ]
  in
  let t = Texttable.create ~header:[ "parameter"; "Full-mesh (RON)"; "Quorum system" ] in
  Texttable.add_row t (row "routing interval (r)" (fun c -> Printf.sprintf "%.0fs" c.Config.routing_interval_s));
  Texttable.add_row t (row "probing interval (p)" (fun c -> Printf.sprintf "%.0fs" c.Config.probe_interval_s));
  Texttable.add_row t (row "#probes for failure" (fun c -> string_of_int c.Config.probes_for_failure));
  Texttable.add_row t (row "staleness window" (fun c -> Printf.sprintf "%dr" c.Config.staleness_windows));
  Texttable.add_row t (row "probe timeout" (fun c -> Printf.sprintf "%.0fs" c.Config.probe_timeout_s));
  Texttable.print t

(* --- Theory: Theorem 1, closed forms, Appendix A -------------------------------- *)

let theory () =
  section "Theory: Theorem 1 communication bounds";
  let t = Texttable.create ~header:[ "n"; "max msgs/node"; "bound 4*ceil(sqrt n)"; "mean bytes/node"; "bytes/n^1.5" ] in
  List.iter
    (fun n ->
      let rng = Rng.make ~seed:1 in
      let m = random_symmetric ~rng ~n ~lo:1 ~range:100 in
      let { Protocol.stats; _ } = Protocol.run ~grid:(Grid.build n) m in
      let max_msgs = Array.fold_left max 0 stats.Protocol.messages_sent in
      let mean_bytes = Stats.mean_array (Array.map float_of_int stats.Protocol.bytes_sent) in
      Texttable.add_row t
        [
          string_of_int n;
          string_of_int max_msgs;
          string_of_int (Protocol.max_messages_bound ~n);
          Printf.sprintf "%.0f" mean_bytes;
          Printf.sprintf "%.2f" (mean_bytes /. (float_of_int n ** 1.5));
        ])
    [ 25; 49; 100; 144; 196; 400 ];
  Texttable.print t;
  print_endline "(bytes/n^1.5 flat => Theta(n sqrt n) per-node communication)";

  section "Theory: closed-form bandwidth (Section 6.1) and capacity headlines";
  let module B = Apor_analysis.Bandwidth in
  Printf.printf "routing @140: RON %.1f kbps, quorum %.1f kbps (paper: 34.8 / 15.3)\n"
    (B.routing_bps B.Full_mesh ~n:140 /. 1000.)
    (B.routing_bps B.Quorum ~n:140 /. 1000.);
  Printf.printf "56 kbps budget: %d full-mesh nodes vs %d quorum nodes (paper: 165 / ~300)\n"
    (B.max_nodes_within B.Full_mesh ~budget_bps:56000.)
    (B.max_nodes_within B.Quorum ~budget_bps:56000.);
  Printf.printf "416 PlanetLab sites: %.0f kbps prior vs %.0f kbps ours (paper: 307 / 86)\n"
    (B.total_bps B.Full_mesh ~n:416 /. 1000.)
    (B.total_bps B.Quorum ~n:416 /. 1000.);

  section "Appendix A: diamond lemmas";
  let t = Texttable.create ~header:[ "n"; "diamonds 3*C(n,4)"; "exhaustive count" ] in
  List.iter
    (fun n ->
      let edges = ref [] in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          edges := (a, b) :: !edges
        done
      done;
      Texttable.add_row t
        [
          string_of_int n;
          string_of_int (Diamonds.diamonds_in_complete n);
          string_of_int (Diamonds.count ~n ~edges:!edges);
        ])
    [ 4; 5; 6; 7; 8; 9 ];
  Texttable.print t;
  Printf.printf
    "Theorem 4 lower bound (edges each node must receive): n=100 -> %.0f, n=400 -> %.0f\n"
    (Diamonds.lower_bound_edges_per_node 100)
    (Diamonds.lower_bound_edges_per_node 400)

(* --- Figure 9: bandwidth vs overlay size ------------------------------------------ *)

let measured_routing_kbps ~config ~n ~seed =
  let rtt = Array.make_matrix n n 60. in
  for i = 0 to n - 1 do
    rtt.(i).(i) <- 0.
  done;
  let cluster = Cluster.create ~config ~rtt_ms:rtt ~seed () in
  Cluster.start cluster;
  let warmup = 120. and measured = 300. in
  Cluster.run_until cluster (warmup +. measured);
  let per_node =
    List.init n (fun node -> Cluster.routing_kbps cluster ~node ~t0:warmup ~t1:(warmup +. measured))
  in
  Stats.mean per_node

let fig9 ~quick ~seed =
  section "Figure 9: per-node routing traffic vs overlay size (emulation, no failures)";
  let module B = Apor_analysis.Bandwidth in
  let sizes = if quick then [ 20; 60; 100; 140 ] else [ 10; 20; 40; 60; 80; 100; 120; 140; 160; 180; 200 ] in
  Printf.printf "# n ron_kbps quorum_kbps ron_theory quorum_theory\n%!";
  List.iter
    (fun n ->
      let ron = measured_routing_kbps ~config:Config.ron_default ~n ~seed in
      let quorum = measured_routing_kbps ~config:Config.quorum_default ~n ~seed in
      Printf.printf "%d %.2f %.2f %.2f %.2f\n%!" n ron quorum
        (B.routing_bps B.Full_mesh ~n /. 1000.)
        (B.routing_bps B.Quorum ~n /. 1000.))
    sizes;
  print_endline
    "(measured tracks theory; quorum grows as n^1.5 and crosses below RON for n >~ 20)"

(* --- Availability: the overlay's raison d'etre ----------------------------------- *)

(* Not a figure in this paper, but its motivating claim (Section 2 cites
   2-10x availability improvements from overlays): compare direct-path
   datagram delivery against delivery along the recommended one-hop path
   under the failure model, on the same virtual internet.  Both go
   through the data-plane driver; exits 1 unless the overlay's trial
   success beats the direct path's. *)
let availability ~quick ~seed =
  section "Availability: direct Internet path vs overlay one-hop routing";
  let n = 100 in
  let world = Internet.generate ~seed ~n () in
  let cluster =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:world.Internet.rtt_ms
      ~loss:world.Internet.loss ~seed ()
  in
  let (_ : Failures.t) =
    Failures.install ~engine:(Cluster.engine cluster) ~profile:Failures.planetlab ~seed ()
  in
  let rng = Rng.make ~seed:(seed + 7) in
  (* a "trial" is a (src, dst, t) communication attempt: three packets one
     second apart per strategy, success = at least one delivered (RON-style
     applications retry; single-packet loss is not unavailability) *)
  let direct_trials = ref [] and overlay_trials = ref [] in
  let t0 = 300. and t1 = if quick then 1500. else 3900. in
  let engine = Cluster.engine cluster in
  let driver =
    Apor_dataplane.Driver.create
      (Apor_dataplane.Host.of_cluster cluster)
      ~metrics:(Apor_dataplane.Metrics.create ~window_s:30. ~t0) ()
  in
  let attempt ~direct trials src dst =
    let ids = ref [] in
    for k = 0 to 2 do
      Apor_sim.Engine.schedule engine ~delay:(float_of_int k) (fun () ->
          ids := Apor_dataplane.Driver.send driver ~src ~dst ~direct :: !ids)
    done;
    trials := ids :: !trials
  in
  let rec sample () =
    if Apor_sim.Engine.now engine <= t1 then begin
      for _ = 1 to 15 do
        let src = Rng.int rng n in
        let dst = Rng.int rng n in
        if src <> dst then begin
          attempt ~direct:true direct_trials src dst;
          attempt ~direct:false overlay_trials src dst
        end
      done;
      Apor_sim.Engine.schedule engine ~delay:30. sample
    end
  in
  Apor_sim.Engine.schedule_at engine ~time:t0 sample;
  Cluster.start cluster;
  Cluster.run_until cluster (t1 +. 30.);
  let success trials =
    let ok =
      List.length
        (List.filter
           (fun ids ->
             List.exists (fun id -> not (Apor_dataplane.Driver.in_flight driver id)) !ids)
           trials)
    in
    float_of_int ok /. float_of_int (List.length trials)
  in
  let direct = success !direct_trials and overlay = success !overlay_trials in
  Printf.printf "%d trials per strategy over %.0f virtual minutes with failures\n"
    (List.length !direct_trials)
    ((t1 -. t0) /. 60.);
  let t = Texttable.create ~header:[ "strategy"; "trial success"; "unavailability" ] in
  Texttable.add_row t
    [ "direct path"; Printf.sprintf "%.1f%%" (100. *. direct); Printf.sprintf "%.1f%%" (100. *. (1. -. direct)) ];
  Texttable.add_row t
    [ "overlay"; Printf.sprintf "%.1f%%" (100. *. overlay); Printf.sprintf "%.1f%%" (100. *. (1. -. overlay)) ];
  Texttable.print t;
  if overlay < 1. then
    Printf.printf
      "\noverlay routing cuts the failure rate by %.1fx (the paper's motivating\n\
       overlay literature reports 2-10x availability improvements)\n"
      ((1. -. direct) /. (Float.max 1e-9 (1. -. overlay)));
  if overlay <= direct then begin
    prerr_endline "availability: overlay trial success does not beat the direct path";
    exit 1
  end

(* --- Quorum construction comparison ----------------------------------------------- *)

let quorum_compare () =
  section "Quorum constructions: grid (paper), cyclic, probabilistic [14]";
  let t =
    Texttable.create
      ~header:
        [ "n"; "construction"; "max degree"; "mean degree"; "load imbalance";
          "pair coverage"; "optimal pairs"; "mean bytes/node" ]
  in
  List.iter
    (fun n ->
      let m = random_symmetric ~rng:(Rng.make ~seed:9) ~n ~lo:1 ~range:500 in
      List.iter
        (fun system ->
          let { Protocol.stats; routes } = Protocol.run_with ~system m in
          let optimal = ref 0 and total = ref 0 in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if i <> j then begin
                incr total;
                if Float.equal routes.(i).(j).Best_hop.cost (Best_hop.brute_force_cost m i j)
                then incr optimal
              end
            done
          done;
          let optimal_frac = float_of_int !optimal /. float_of_int !total in
          (* the deterministic constructions must be perfect *)
          let is_probabilistic =
            String.length system.System.name >= 4 && String.sub system.System.name 0 4 = "prob"
          in
          if (not is_probabilistic) && optimal_frac < 1. then
            failwith "deterministic quorum construction produced suboptimal routes";
          Texttable.add_row t
            [
              string_of_int n;
              system.System.name;
              string_of_int (System.max_degree system);
              Printf.sprintf "%.1f" (System.mean_degree system);
              Printf.sprintf "%.2f" (System.load_imbalance system);
              Printf.sprintf "%.4f" (Probabilistic.coverage system);
              Printf.sprintf "%.4f" optimal_frac;
              Printf.sprintf "%.0f"
                (Stats.mean_array (Array.map float_of_int stats.Protocol.bytes_sent));
            ])
        [
          System.of_grid (Grid.build n);
          Cyclic.system n;
          Probabilistic.system ~seed:9 n;
          (let s = Probabilistic.system ~multiplier:1.2 ~seed:9 n in
           { s with System.name = "prob-x1.2" });
        ])
    [ 50; 100; 140; 200 ];
  Texttable.print t;
  print_endline
    "(the deterministic constructions yield optimal routes everywhere at\n\
     Theta(n sqrt n) per-node cost; the cyclic one trades the grid's symmetry\n\
     for perfect load balance on ragged n; the probabilistic one (Malkhi et\n\
     al., the paper's [14]) shows why certain cover matters: its rare\n\
     uncovered pairs settle for the Section 4.2 fallback routes)"

(* --- Chaos: resilience scoring under a scripted fault timeline --------------------- *)

(* The bench variant builds its scenario with the OCaml combinators rather
   than a .scn file: same timeline shape as examples/chaos/
   fig8_concurrent_links.scn, scaled down under --quick. *)

let chaos ~quick ~seed =
  section "Chaos: resilience under concurrent scripted faults (simulator)";
  let open Apor_chaos in
  let n = if quick then 9 else 16 in
  let horizon_s = if quick then 320. else 600. in
  let rng = Rng.split (Rng.make ~seed) "bench.chaos" in
  let random_flap r =
    let a = Rng.int r n in
    let rec other () =
      let b = Rng.int r n in
      if b = a then other () else b
    in
    Scenario.Link_flap { a; b = other (); duration_s = 30. }
  in
  let scn =
    Scenario.make ~name:"bench-chaos" ~n ~seed ~warmup_s:120. ~horizon_s
      ~grace_s:60.
      [
        Scenario.stagger ~t0:130. ~gap_s:15.
          [
            Scenario.Link_flap { a = 0; b = 4; duration_s = 60. };
            Scenario.Link_flap { a = 2; b = 7; duration_s = 60. };
          ];
        Scenario.at 175.
          (Scenario.Loss_burst { a = 1; b = 5; loss = 0.9; duration_s = 30. });
        (if quick then []
         else Scenario.at 330. (Scenario.Node_crash { node = 3; down_s = 45. }));
        (if quick then []
         else Scenario.sample ~rng ~k:3 ~t0:420. ~t1:470. random_flap);
      ]
  in
  match Runner.run_sim scn with
  | Error e -> Printf.printf "chaos: error: %s\n" e
  | Ok { Runner.score; violations; passed } ->
      Apor_analysis.Resilience.print score;
      List.iter
        (fun v ->
          Printf.printf "  violation: %s\n"
            (Format.asprintf "%a" Apor_trace.Oracle.pp_violation v))
        violations;
      Printf.printf "\nresult: %s\n" (if passed then "PASSED" else "FAILED");
      if not passed then failwith "chaos scenario failed resilience scoring"
