(* lib/trace: the collector's ring/sink mechanics, the query folds, and the
   invariant oracle — fed synthetic streams where seeded corruption must be
   caught, and live clusters where a clean run must produce zero
   violations. *)

open Apor_linkstate
open Apor_core
open Apor_sim
open Apor_overlay
open Apor_overlay_core
open Apor_topology
open Apor_trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let metric = Metric.default

let staleness_s = Config.staleness_s Config.quorum_default

let lspush node server = Event.Ls_push { node; server; view = 1 }

(* --- collector ----------------------------------------------------------- *)

let test_ring_wrap () =
  let tr = Collector.create ~capacity:4 () in
  let seen = ref 0 in
  Collector.subscribe tr (fun _ -> incr seen);
  for i = 0 to 9 do
    Collector.emit tr (lspush i (i + 1))
  done;
  check_int "total" 10 (Collector.total tr);
  check_int "retained" 4 (Collector.length tr);
  check_int "subscriber saw everything, wrap or not" 10 !seen;
  let seqs = ref [] in
  Collector.iter tr (fun tv -> seqs := tv.Collector.seq :: !seqs);
  Alcotest.(check (list int)) "oldest retained first" [ 6; 7; 8; 9 ] (List.rev !seqs)

let test_clock_and_filters () =
  let clock = ref 0. in
  let tr = Collector.create ~capacity:64 () in
  Collector.set_clock tr (fun () -> !clock);
  clock := 1.;
  Collector.emit tr (lspush 0 1);
  clock := 2.;
  Collector.emit tr (Event.Send { cls = Traffic.Probe; src = 0; dst = 2; bytes = 46 });
  clock := 3.;
  Collector.emit tr (lspush 2 0);
  check_int "kind filter" 2
    (List.length (Collector.events ~kind:Event.Kind.Ls_push tr));
  check_int "node filter" 3 (List.length (Collector.events ~node:0 tr));
  check_int "node 1 only pushed to" 1 (List.length (Collector.events ~node:1 tr));
  check_int "window" 1 (List.length (Collector.events ~t0:1.5 ~t1:2.5 tr));
  match Collector.events ~t0:3. tr with
  | [ tv ] -> check_bool "stamped with the clock" true (tv.Collector.time = 3.)
  | l -> Alcotest.failf "expected 1 event at t>=3, got %d" (List.length l)

let test_jsonl_sink () =
  let tr = Collector.create () in
  let path = Filename.temp_file "apor-trace" ".jsonl" in
  let oc = open_out path in
  Collector.set_sink ~kinds:Event.Kind.protocol tr oc;
  Collector.emit tr (Event.Send { cls = Traffic.Routing; src = 0; dst = 1; bytes = 99 });
  Collector.emit tr (lspush 0 1);
  Collector.emit tr
    (Event.Rec_applied { node = 1; server = 0; dst = 2; hop = 2; view = 1; local = false });
  Collector.clear_sink tr;
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  check_int "engine event filtered out" 2 (List.length lines);
  List.iter
    (fun line ->
      check_bool "one JSON object per line" true
        (String.length line > 2
        && String.sub line 0 8 = {|{"time":|}
        && line.[String.length line - 1] = '}'))
    lines;
  check_bool "kind field present" true
    (List.for_all
       (fun line ->
         let re = {|"kind":|} in
         let rec find i =
           i + String.length re <= String.length line
           && (String.sub line i (String.length re) = re || find (i + 1))
         in
         find 0)
       lines)

(* --- oracle on synthetic streams ----------------------------------------- *)

let feed oracle events =
  List.iteri
    (fun seq (time, event) -> Oracle.observe oracle { Collector.seq; time; event })
    events

let snap ~n ~owner latency =
  Snapshot.create ~owner
    (Array.init n (fun j ->
         if j = owner then Entry.self
         else Entry.make ~latency_ms:(latency j) ~loss:0. ~alive:true))

(* A 4-node overlay (2x2 grid) where server 0 holds everyone's tables. *)
let synthetic_tables () =
  let n = 4 in
  let snaps =
    Array.init n (fun owner ->
        snap ~n ~owner (fun j -> 10. +. (20. *. float_of_int (abs (owner - j)))))
  in
  let views = List.init n (fun node -> (0., Event.View_installed { node; view = 1; size = n })) in
  let ingests =
    List.init n (fun owner ->
        (1., Event.Ls_ingest { node = 0; owner; view = 1; snapshot = snaps.(owner) }))
  in
  (snaps, views @ ingests)

let test_oracle_accepts_correct_recommendation () =
  let snaps, setup = synthetic_tables () in
  let oracle = Oracle.create ~metric ~staleness_s () in
  let vec owner = Snapshot.cost_vector snaps.(owner) metric in
  let best = Best_hop.best ~src:1 ~dst:2 ~cost_from_src:(vec 1) ~cost_to_dst:(vec 2) in
  feed oracle
    (setup
    @ [
        ( 2.,
          Event.Rec_computed
            { server = 0; client = 1; view = 1; entries = [ (2, best.Best_hop.hop) ] } );
      ]);
  check_int "no violations" 0 (Oracle.violation_count oracle);
  check_int "entry was checked" 1 (Oracle.recommendations_checked oracle)

let test_oracle_catches_corrupted_recommendation () =
  let snaps, setup = synthetic_tables () in
  let oracle = Oracle.create ~metric ~staleness_s () in
  let vec owner = Snapshot.cost_vector snaps.(owner) metric in
  let best = Best_hop.best ~src:1 ~dst:2 ~cost_from_src:(vec 1) ~cost_to_dst:(vec 2) in
  let wrong = if best.Best_hop.hop = 3 then 2 else 3 in
  feed oracle setup;
  (try
     feed oracle
       [
         ( 2.,
           Event.Rec_computed
             { server = 0; client = 1; view = 1; entries = [ (2, wrong) ] } );
       ];
     Alcotest.fail "corrupted recommendation not caught"
   with Oracle.Violation v ->
     check_bool "one-hop optimality check fired" true
       (v.Oracle.check = Oracle.One_hop_optimality));
  check_int "violation recorded" 1 (Oracle.violation_count oracle)

let test_oracle_catches_stale_table_use () =
  (* recommending from a table older than the staleness window is a
     protocol bug even if the hop happens to be right *)
  let snaps, setup = synthetic_tables () in
  let oracle = Oracle.create ~metric ~staleness_s () in
  let vec owner = Snapshot.cost_vector snaps.(owner) metric in
  let best = Best_hop.best ~src:1 ~dst:2 ~cost_from_src:(vec 1) ~cost_to_dst:(vec 2) in
  feed oracle setup;
  try
    feed oracle
      [
        ( 1. +. staleness_s +. 1.,
          Event.Rec_computed
            { server = 0; client = 1; view = 1; entries = [ (2, best.Best_hop.hop) ] } );
      ];
    Alcotest.fail "stale-table recommendation not caught"
  with Oracle.Violation v ->
    check_bool "optimality check" true (v.Oracle.check = Oracle.One_hop_optimality)

let test_oracle_catches_intersection_violation () =
  (* 3x3 grid: node 4 (center) is rendezvous for neither node 0 nor any
     failover of 0's — a recommendation from it must trip the oracle *)
  let oracle = Oracle.create ~metric ~staleness_s () in
  feed oracle
    (List.init 9 (fun node -> (0., Event.View_installed { node; view = 1; size = 9 })));
  (* sanity: a legitimate rendezvous (2 serves both 0 and 8) passes *)
  feed oracle
    [
      ( 1.,
        Event.Rec_applied
          { node = 0; server = 2; dst = 8; hop = 4; view = 1; local = false } );
    ];
  check_int "valid application accepted" 0 (Oracle.violation_count oracle);
  (try
     feed oracle
       [
         ( 1.,
           Event.Rec_applied
             { node = 0; server = 4; dst = 8; hop = 4; view = 1; local = false } );
       ];
     Alcotest.fail "non-rendezvous recommendation not caught"
   with Oracle.Violation v ->
     check_bool "intersection check fired" true
       (v.Oracle.check = Oracle.Quorum_intersection));
  check_int "applications checked" 2 (Oracle.applications_checked oracle)

let test_oracle_failover_grace () =
  (* node 0 recruits 5 (a server of 8's but not of 0's) as failover: its
     recommendations are valid while the episode runs and for one
     staleness window after, then become violations again *)
  let oracle = Oracle.create ~raise_on_violation:false ~metric ~staleness_s () in
  let applied time =
    ( time,
      Event.Rec_applied { node = 0; server = 5; dst = 8; hop = 4; view = 1; local = false }
    )
  in
  feed oracle
    (List.init 9 (fun node -> (0., Event.View_installed { node; view = 1; size = 9 })));
  feed oracle [ applied 1. ];
  check_int "5 does not serve 0: violation" 1 (Oracle.violation_count oracle);
  feed oracle
    [
      (10., Event.Failover_started { node = 0; dst = 8; server = 5; view = 1 });
      applied 11.;
      (20., Event.Failover_stopped { node = 0; dst = 8; view = 1; reason = Event.Recovered });
      applied (20. +. staleness_s); (* within the grace window *)
    ];
  check_int "active + grace applications accepted" 1 (Oracle.violation_count oracle);
  feed oracle [ applied (20. +. staleness_s +. 10.) ];
  check_int "stale failover server flagged again" 2 (Oracle.violation_count oracle)

let test_oracle_recommendation_integrity () =
  (* 3x3 grid: server 2 serves both 0 and 8.  Node 0 may install a hop
     from either of the last two batches 2 computed for it, and no other;
     a batch for another client says nothing about node 0. *)
  let oracle = Oracle.create ~raise_on_violation:false ~metric ~staleness_s () in
  let computed time entries =
    (time, Event.Rec_computed { server = 2; client = 0; view = 1; entries })
  in
  let applied time hop =
    (time, Event.Rec_applied { node = 0; server = 2; dst = 8; hop; view = 1; local = false })
  in
  feed oracle
    (List.init 9 (fun node -> (0., Event.View_installed { node; view = 1; size = 9 })));
  feed oracle [ applied 1. 5 ];
  check_int "no batch recorded: not judged" 0 (Oracle.violation_count oracle);
  feed oracle
    [
      computed 2. [ (1, 1); (8, 4) ];
      (2., Event.Rec_computed { server = 2; client = 6; view = 1; entries = [ (8, 7) ] });
      applied 2.1 4;
    ];
  check_int "hop of the newest batch accepted" 0 (Oracle.violation_count oracle);
  feed oracle [ applied 2.2 7 ];
  check_int "hop of another client's batch flagged" 1 (Oracle.violation_count oracle);
  feed oracle [ computed 3. [ (1, 1); (8, 5) ]; applied 3.1 4; applied 3.2 5 ];
  check_int "previous batch still accepted" 1 (Oracle.violation_count oracle);
  feed oracle [ computed 4. [ (1, 1); (8, 6) ]; applied 4.1 4 ];
  check_int "older batches flagged" 2 (Oracle.violation_count oracle);
  check_bool "flagged as integrity" true
    (List.for_all
       (fun v ->
         v.Oracle.check = Oracle.One_hop_optimality
         && String.length v.Oracle.detail > 24
         && String.sub v.Oracle.detail 0 24 = "recommendation integrity")
       (Oracle.violations oracle));
  feed oracle [ (5., Event.Rec_gap { node = 0; server = 2; view = 1; epoch = 9 }) ];
  check_int "gaps counted" 1 (Oracle.rec_gaps oracle)

let test_oracle_violations_outside () =
  (* same invalid application as the failover test, at two times; the
     window filter must excuse exactly the covered one *)
  let oracle = Oracle.create ~raise_on_violation:false ~metric ~staleness_s () in
  let applied time =
    ( time,
      Event.Rec_applied { node = 0; server = 5; dst = 8; hop = 4; view = 1; local = false }
    )
  in
  feed oracle
    (List.init 9 (fun node -> (0., Event.View_installed { node; view = 1; size = 9 })));
  feed oracle [ applied 1.; applied 50. ];
  check_int "two violations recorded" 2 (Oracle.violation_count oracle);
  let outside = Oracle.violations_outside oracle ~windows:[ (0., 10.) ] in
  check_int "t=50 falls outside" 1 (List.length outside);
  check_bool "it is the late one" true
    (match outside with [ v ] -> v.Oracle.time = 50. | _ -> false);
  check_int "both windows covered"
    0
    (List.length (Oracle.violations_outside oracle ~windows:[ (0., 10.); (45., 60.) ]));
  check_int "no windows excuses nothing" 2
    (List.length (Oracle.violations_outside oracle ~windows:[]))

let check_engine_traffic oracle traffic ~now =
  Oracle.check_traffic oracle ~n:(Traffic.n traffic)
    ~accounted:(fun node ->
      List.fold_left
        (fun acc cls ->
          acc + Traffic.bytes_in_range traffic ~cls ~node ~t0:0. ~t1:(now +. 1.))
        0 Traffic.all_classes)
    ~now

let test_traffic_conservation_synthetic () =
  let oracle = Oracle.create ~raise_on_violation:false ~metric ~staleness_s () in
  let traffic = Traffic.create ~n:2 in
  Traffic.record traffic Traffic.Probe ~node:0 ~bytes:100 ~now:1.;
  Traffic.record traffic Traffic.Probe ~node:1 ~bytes:100 ~now:1.2;
  feed oracle
    [
      (1., Event.Send { cls = Traffic.Probe; src = 0; dst = 1; bytes = 100 });
      (1.2, Event.Deliver { cls = Traffic.Probe; src = 0; dst = 1; bytes = 100 });
    ];
  check_engine_traffic oracle traffic ~now:2.;
  check_int "books balance" 0 (Oracle.violation_count oracle);
  (* bytes the engine accounted but the trace never saw *)
  Traffic.record traffic Traffic.Data ~node:0 ~bytes:7 ~now:1.5;
  check_engine_traffic oracle traffic ~now:2.;
  check_bool "imbalance caught" true (Oracle.violation_count oracle > 0)

(* --- live clusters -------------------------------------------------------- *)

let flat_rtt n =
  let m = Array.make_matrix n n 80. in
  for i = 0 to n - 1 do
    m.(i).(i) <- 0.
  done;
  m

let test_live_cluster_is_violation_free () =
  let n = 9 in
  let tr = Collector.create () in
  let oracle = Oracle.create ~metric ~staleness_s () in
  Oracle.attach oracle tr;
  let c =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:(flat_rtt n) ~trace:tr ~seed:11 ()
  in
  Cluster.start c;
  Cluster.run_until c 300.;
  check_int "no violations" 0 (Oracle.violation_count oracle);
  check_bool "optimality exercised" true (Oracle.recommendations_checked oracle > 0);
  check_bool "intersection exercised" true (Oracle.applications_checked oracle > 0);
  check_engine_traffic oracle (Cluster.traffic c) ~now:(Cluster.now c);
  check_int "traffic conserved" 0 (Oracle.violation_count oracle);
  (* the query layer agrees with the run *)
  let latencies = Query.recommendation_latencies tr in
  check_bool "latency samples exist" true (latencies <> []);
  check_bool "latencies sane" true
    (List.for_all (fun l -> l >= 0. && l <= staleness_s) latencies)

let test_regression_25_nodes_planetlab () =
  (* the acceptance run: 25 nodes under PlanetLab-style churn with the
     oracle raising on any violation *)
  let n = 25 in
  let world = Internet.generate ~seed:42 ~n () in
  let tr = Collector.create () in
  let oracle = Oracle.create ~metric ~staleness_s () in
  Oracle.attach oracle tr;
  let c =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:world.Internet.rtt_ms
      ~loss:world.Internet.loss ~trace:tr ~seed:42 ()
  in
  let (_ : Failures.t) =
    Failures.install ~engine:(Cluster.engine c) ~profile:Failures.planetlab ~seed:42 ()
  in
  Cluster.start c;
  Cluster.run_until c 900.;
  check_int "zero violations under churn" 0 (Oracle.violation_count oracle);
  check_bool "recommendations checked" true (Oracle.recommendations_checked oracle > 1000);
  check_engine_traffic oracle (Cluster.traffic c) ~now:(Cluster.now c);
  check_int "traffic conserved" 0 (Oracle.violation_count oracle);
  (* failover spans, if any occurred, must be well-formed *)
  List.iter
    (fun sp ->
      match sp.Query.ended with
      | Some e -> check_bool "span ordered" true (e >= sp.Query.started)
      | None -> ())
    (Query.failover_spans tr)

(* 25 nodes under PlanetLab churn on lossy links for 300 s, with the
   oracle attached.  Returns the link-state delta changes that move only
   a cell's loss byte: each delta's changes are compared with its
   owner's previous announced row, the own row of the [Ls_ingest] before
   the tick's. *)
let loss_only_delta_changes ~metric =
  let config = { Config.quorum_default with Config.metric } in
  let world = Internet.generate ~seed:42 ~n:25 () in
  let tr = Collector.create () in
  let oracle = Oracle.create ~metric ~staleness_s:(Config.staleness_s config) () in
  Oracle.attach oracle tr;
  let own = Hashtbl.create 32 (* owner -> (previous, current) announced rows *) in
  Collector.subscribe tr (fun tv ->
      match tv.Collector.event with
      | Event.Ls_ingest { node; owner; snapshot; _ } when node = owner ->
          let cur = Option.map snd (Hashtbl.find_opt own owner) in
          Hashtbl.replace own owner (cur, snapshot)
      | _ -> ());
  let c =
    Cluster.create ~config ~rtt_ms:world.Internet.rtt_ms ~loss:world.Internet.loss ~trace:tr
      ~seed:42 ()
  in
  let deltas = ref 0 and loss_only = ref 0 in
  for port = 0 to 24 do
    Runtime.set_tap
      (Node.runtime (Cluster.node c port))
      (Some
         (fun _ _ outputs ->
           List.iter
             (function
               | Node_core.Send { msg = Message.Link_state_delta { delta; _ }; _ } -> (
                   incr deltas;
                   match Hashtbl.find_opt own port with
                   | Some (Some prev, _) ->
                       List.iter
                         (fun (j, (e : Entry.t)) ->
                           let was = Snapshot.entry prev j in
                           if
                             e.Entry.alive && was.Entry.alive
                             && e.Entry.latency_ms = was.Entry.latency_ms
                             && e.Entry.loss <> was.Entry.loss
                           then incr loss_only)
                         delta.Wire.Delta.changes
                   | Some (None, _) | None -> ())
               | _ -> ())
             outputs))
  done;
  let (_ : Failures.t) =
    Failures.install ~engine:(Cluster.engine c) ~profile:Failures.planetlab ~seed:42 ()
  in
  Cluster.start c;
  Cluster.run_until c 300.;
  check_int "zero violations" 0 (Oracle.violation_count oracle);
  check_bool "recommendations checked" true (Oracle.recommendations_checked oracle > 1000);
  check_bool (Printf.sprintf "deltas sent (%d)" !deltas) true (!deltas > 1000);
  !loss_only

let test_loss_sensitive_churn () =
  let carried =
    loss_only_delta_changes ~metric:(Metric.Loss_sensitive { retry_penalty_ms = 100. })
  in
  check_bool (Printf.sprintf "loss-sensitive deltas carry loss changes (%d)" carried) true
    (carried > 100);
  check_int "latency deltas carry none" 0 (loss_only_delta_changes ~metric:Metric.Latency)

(* The 25-node, 900 s run with PlanetLab link failures shared by the live
   tests below: links fail and recover throughout, so rows change every
   routing interval and most announcements travel as deltas. *)
let planetlab_25 ?(config = Config.quorum_default) ?trace () =
  let world = Internet.generate ~seed:42 ~n:25 () in
  let c =
    Cluster.create ~config ~rtt_ms:world.Internet.rtt_ms ~loss:world.Internet.loss ?trace
      ~seed:42 ()
  in
  let (_ : Failures.t) =
    Failures.install ~engine:(Cluster.engine c) ~profile:Failures.planetlab ~seed:42 ()
  in
  Cluster.start c;
  Cluster.run_until c 900.;
  c

let test_incremental_rendezvous_identical () =
  (* The per-pair cache is a pure optimization: over a failure-injected
     900 s run, the recommendation streams of a cached and an uncached
     cluster must match event for event, and the cached run must stay
     violation-free under the oracle. *)
  let run config =
    let tr = Collector.create () in
    let recs = ref [] in
    Collector.subscribe tr (fun tv ->
        match tv.Collector.event with
        | Event.Rec_computed _ | Event.Rec_applied _ ->
            recs := (tv.Collector.time, tv.Collector.event) :: !recs
        | _ -> ());
    let oracle = Oracle.create ~metric ~staleness_s () in
    Oracle.attach oracle tr;
    ignore (planetlab_25 ~config ~trace:tr () : Cluster.t);
    check_int "zero violations" 0 (Oracle.violation_count oracle);
    List.rev !recs
  in
  let cached = run Config.quorum_default in
  let uncached = run { Config.quorum_default with Config.incremental_rendezvous = false } in
  check_bool "streams non-trivial" true (List.length cached > 1000);
  check_bool "cached = uncached recommendation streams" true (cached = uncached)

(* Follows the [Ls_ingest] events whose row a delta built and counts
   them, and how many of their snapshots had changed by the time the same
   owner's next delta reached the same node.  A full announcement carries
   the very snapshot its owner installed as its own row; a delta-built
   row is never one of those. *)
let watch_delta_ingests tr =
  let own = Hashtbl.create 64 (* owner -> its own-row snapshots *) in
  let last = Hashtbl.create 256 (* (node, owner) -> snapshot, copy at ingest *) in
  let deltas = ref 0 and changed = ref 0 in
  Collector.subscribe tr (fun tv ->
      match tv.Collector.event with
      | Event.Ls_ingest { node; owner; snapshot; _ } when node = owner ->
          Hashtbl.add own owner snapshot
      | Event.Ls_ingest { node; owner; snapshot; _ }
        when not (List.memq snapshot (Hashtbl.find_all own owner)) ->
          incr deltas;
          (match Hashtbl.find_opt last (node, owner) with
          | Some (kept, at_ingest) -> if not (Snapshot.equal kept at_ingest) then incr changed
          | None -> ());
          Hashtbl.replace last (node, owner) (snapshot, Snapshot.copy snapshot)
      | _ -> ());
  (deltas, changed)

let test_delta_ingest_snapshots_kept () =
  (* The table mutates its private rows in place, traced or not; the
     snapshot an [Ls_ingest] hands the oracle's mirror must not change
     under it when the owner's next delta lands. *)
  let tr = Collector.create () in
  let deltas, changed = watch_delta_ingests tr in
  ignore (planetlab_25 ~trace:tr () : Cluster.t);
  check_bool "deltas ingested" true (!deltas > 1000);
  check_int "delta snapshots changed after ingest" 0 !changed

let test_tracing_disabled_identical_routes () =
  (* a traced run and an untraced run with the same seed must agree —
     tracing observes, never perturbs — on a run where deltas flow, so
     both go through the same in-place table path *)
  let n = 25 in
  let observe c =
    ( List.init n (fun src ->
          List.init n (fun dst -> if src = dst then None else Cluster.best_hop c ~src ~dst)),
      Array.init n (fun node ->
          Traffic.bytes_in_range (Cluster.traffic c) ~cls:Traffic.Routing ~node ~t0:0. ~t1:900.)
    )
  in
  let tr = Collector.create () in
  let deltas, _ = watch_delta_ingests tr in
  let traced = observe (planetlab_25 ~trace:tr ()) in
  check_bool "deltas ingested" true (!deltas > 1000);
  let untraced = observe (planetlab_25 ()) in
  check_bool "identical best hops" true (fst untraced = fst traced);
  Alcotest.(check (array int)) "identical routing bytes per node" (snd untraced) (snd traced)

let test_query_counts_match_engine () =
  let n = 9 in
  let tr = Collector.create ~capacity:(1 lsl 20) () in
  let c =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:(flat_rtt n) ~trace:tr ~seed:3 ()
  in
  Cluster.start c;
  Cluster.run_until c 120.;
  (* nothing wrapped, so the ring holds the whole history and the traced
     bytes must equal the engine's accounting exactly *)
  check_int "ring did not wrap" (Collector.total tr) (Collector.length tr);
  let traced = Query.traced_bytes tr ~n in
  let traffic = Cluster.traffic c in
  let now = Cluster.now c in
  for node = 0 to n - 1 do
    let engine =
      List.fold_left
        (fun acc cls ->
          acc + Traffic.bytes_in_range traffic ~cls ~node ~t0:0. ~t1:(now +. 1.))
        0 Traffic.all_classes
    in
    check_int (Printf.sprintf "node %d bytes" node) engine traced.(node)
  done;
  let counts = Query.per_node_messages tr ~n in
  let total_sent = Array.fold_left (fun acc (s, _) -> acc + s) 0 counts in
  let total_received = Array.fold_left (fun acc (_, r) -> acc + r) 0 counts in
  check_bool "overlay-wide, deliveries cannot exceed transmissions" true
    (total_received <= total_sent);
  check_bool "something was delivered" true (total_received > 0)

let () =
  Alcotest.run "apor_trace"
    [
      ( "collector",
        [
          Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
          Alcotest.test_case "clock + filters" `Quick test_clock_and_filters;
          Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "accepts correct recommendation" `Quick
            test_oracle_accepts_correct_recommendation;
          Alcotest.test_case "catches corrupted recommendation" `Quick
            test_oracle_catches_corrupted_recommendation;
          Alcotest.test_case "catches stale-table use" `Quick
            test_oracle_catches_stale_table_use;
          Alcotest.test_case "catches intersection violation" `Quick
            test_oracle_catches_intersection_violation;
          Alcotest.test_case "failover grace window" `Quick test_oracle_failover_grace;
          Alcotest.test_case "violations outside windows" `Quick
            test_oracle_violations_outside;
          Alcotest.test_case "recommendation integrity" `Quick
            test_oracle_recommendation_integrity;
          Alcotest.test_case "traffic conservation" `Quick
            test_traffic_conservation_synthetic;
        ] );
      ( "live",
        [
          Alcotest.test_case "clean run violation-free" `Slow
            test_live_cluster_is_violation_free;
          Alcotest.test_case "25 nodes + planetlab churn" `Slow
            test_regression_25_nodes_planetlab;
          Alcotest.test_case "cache does not change recommendations" `Slow
            test_incremental_rendezvous_identical;
          Alcotest.test_case "tracing does not perturb" `Slow
            test_tracing_disabled_identical_routes;
          Alcotest.test_case "delta ingest snapshots kept" `Slow
            test_delta_ingest_snapshots_kept;
          Alcotest.test_case "query matches engine accounting" `Slow
            test_query_counts_match_engine;
          Alcotest.test_case "loss-sensitive churn" `Slow test_loss_sensitive_churn;
        ] );
    ]
