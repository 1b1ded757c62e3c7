open Apor_sim
open Apor_core
open Apor_overlay
open Apor_overlay_core
open Apor_topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* A well-behaved test internet: latencies in whole milliseconds (so EWMA
   estimates survive wire quantization exactly), rich in one-hop detours. *)
let test_matrix ~seed n =
  let rng = Apor_util.Rng.make ~seed in
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let base = float_of_int (10 + Apor_util.Rng.int rng 290) in
      let inflated =
        if Apor_util.Rng.bernoulli rng ~p:0.25 then base *. 4. else base
      in
      m.(i).(j) <- Float.round inflated;
      m.(j).(i) <- m.(i).(j)
    done
  done;
  m

(* --- Config ------------------------------------------------------------------ *)

let test_config_defaults_match_paper () =
  check_float "ron routing" 30. Config.ron_default.Config.routing_interval_s;
  check_float "quorum routing" 15. Config.quorum_default.Config.routing_interval_s;
  check_float "probe" 30. Config.quorum_default.Config.probe_interval_s;
  check_int "probes for failure" 5 Config.quorum_default.Config.probes_for_failure;
  check_bool "ron valid" true (Result.is_ok (Config.validate Config.ron_default));
  check_bool "quorum valid" true (Result.is_ok (Config.validate Config.quorum_default))

let test_config_validation_catches_bad () =
  let bad = { Config.quorum_default with Config.probe_interval_s = -1. } in
  check_bool "rejected" true (Result.is_error (Config.validate bad))

(* --- Message sizes -------------------------------------------------------------- *)

let test_message_sizes () =
  let snapshot =
    Apor_linkstate.Snapshot.create ~owner:0
      (Array.make 50 Apor_linkstate.Entry.unreachable)
  in
  check_int "probe" 46 (Message.size_bytes (Message.Probe { seq = 1 }));
  check_int "link state" (46 + 150)
    (Message.size_bytes (Message.Link_state { view = 1; epoch = 0; snapshot }));
  check_int "link state delta" (46 + 6 + 15)
    (Message.size_bytes
       (Message.Link_state_delta
          {
            view = 1;
            delta =
              {
                Apor_linkstate.Wire.Delta.owner = 0;
                epoch = 1;
                changes =
                  List.init 3 (fun i -> (i + 1, Apor_linkstate.Entry.unreachable));
              };
          }));
  check_int "resync" (46 + 2)
    (Message.size_bytes (Message.Ls_resync { view = 1; owner = 3 }));
  check_int "recommend" (46 + 40)
    (Message.size_bytes
       (Message.Recommend { view = 1; epoch = 0; entries = List.init 10 (fun i -> (i, i)) }));
  check_int "recommend delta" (46 + 8 + 8)
    (Message.size_bytes
       (Message.Recommend_delta { view = 1; epoch = 2; base = 1; changed = [ (3, 4); (5, -1) ] }));
  check_int "empty recommend delta" (46 + 8)
    (Message.size_bytes (Message.Recommend_delta { view = 1; epoch = 2; base = 1; changed = [] }));
  check_int "rec resync" (46 + 2)
    (Message.size_bytes (Message.Rec_resync { view = 1; server = 3 }));
  check_int "view" (46 + 4 + 20)
    (Message.size_bytes (Message.View { version = 1; members = List.init 10 Fun.id }))

let test_message_classes () =
  check_bool "probe class" true (Message.cls (Message.Probe { seq = 0 }) = Traffic.Probe);
  check_bool "join class" true (Message.cls (Message.Join { port = 0 }) = Traffic.Membership)

(* --- View ------------------------------------------------------------------------ *)

let test_view_ranks () =
  let v = View.create ~version:3 ~members:[ 10; 3; 7; 3 ] in
  check_int "size dedup" 3 (View.size v);
  Alcotest.(check (option int)) "rank of 7" (Some 1) (View.rank_of_port v 7);
  Alcotest.(check (option int)) "absent" None (View.rank_of_port v 5);
  check_int "port of rank 2" 10 (View.port_of_rank v 2);
  check_bool "contains" true (View.contains_port v 3)

let test_view_rejects_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "View.create: empty member list")
    (fun () -> ignore (View.create ~version:1 ~members:[]))

(* --- Monitor (driven through a tiny overlay) --------------------------------------- *)

(* 3-node cluster helper with controllable network *)
let small_cluster ?(config = Config.quorum_default) ?(n = 3) ?(seed = 11) ?trace () =
  let rtt = Array.make_matrix n n 40. in
  for i = 0 to n - 1 do
    rtt.(i).(i) <- 0.
  done;
  Cluster.create ~config ~rtt_ms:rtt ?trace ~seed ()

let test_monitor_measures_latency () =
  let c = small_cluster () in
  Cluster.start c;
  Cluster.run_until c 120.;
  let m = Node.monitor (Cluster.node c 0) in
  (match Monitor.latency_ms m 1 with
  | None -> Alcotest.fail "no latency measured"
  | Some l -> check_bool (Printf.sprintf "latency %.1f ~ 40" l) true (Float.abs (l -. 40.) < 1.));
  check_bool "alive" true (Monitor.alive m 1);
  check_int "no failures" 0 (Monitor.concurrent_failures m)

let test_monitor_detects_failure_within_period () =
  let c = small_cluster () in
  Cluster.start c;
  Cluster.run_until c 100.;
  let net = Cluster.network c in
  Network.set_link_up net 0 1 false;
  let m = Node.monitor (Cluster.node c 0) in
  (* rapid failure detection: dead within ~1.5 probe periods of the cut *)
  Cluster.run_until c (100. +. 45.);
  check_bool "declared dead" false (Monitor.alive m 1);
  check_int "one concurrent failure" 1 (Monitor.concurrent_failures m)

let test_monitor_recovers () =
  let c = small_cluster () in
  Cluster.start c;
  Cluster.run_until c 100.;
  let net = Cluster.network c in
  Network.set_link_up net 0 1 false;
  Cluster.run_until c 160.;
  Network.set_link_up net 0 1 true;
  Cluster.run_until c 260.;
  let m = Node.monitor (Cluster.node c 0) in
  check_bool "alive again" true (Monitor.alive m 1)

let test_monitor_loss_estimate () =
  let n = 3 in
  let rtt = Array.make_matrix n n 40. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let loss = Array.make_matrix n n 0. in
  loss.(0).(1) <- 0.4;
  loss.(1).(0) <- 0.4;
  (* alpha = 0.9 smooths the Bernoulli sampling noise enough to assert a band *)
  let config = { Config.quorum_default with Config.ewma_alpha = 0.9 } in
  let c = Cluster.create ~config ~rtt_ms:rtt ~loss ~seed:5 () in
  Cluster.start c;
  Cluster.run_until c 6000.;
  let m = Node.monitor (Cluster.node c 0) in
  (* probe+reply both cross the lossy link: per-probe loss ~ 1-(0.6)^2 = 0.64 *)
  let l = Monitor.loss m 1 in
  check_bool (Printf.sprintf "loss estimate %.2f" l) true (l > 0.3 && l < 0.95)

(* --- Route convergence (the system's core promise) ---------------------------------- *)

let converged_routes_optimal ~config ~n ~seed () =
  let rtt = test_matrix ~seed n in
  let c = Cluster.create ~config ~rtt_ms:rtt ~seed () in
  Cluster.start c;
  (* probe phase (<=30s) + settling: two full routing cycles + slack *)
  Cluster.run_until c 150.;
  let m = Costmat.of_arrays rtt in
  let oracle = Fullmesh.one_hop_cost_matrix m in
  let mismatches = ref [] in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        match Cluster.best_hop c ~src ~dst with
        | None -> mismatches := (src, dst, nan) :: !mismatches
        | Some hop ->
            let cost =
              if hop = dst then rtt.(src).(dst) else rtt.(src).(hop) +. rtt.(hop).(dst)
            in
            if not (Float.equal cost oracle.(src).(dst)) then
              mismatches := (src, dst, cost) :: !mismatches
      end
    done
  done;
  !mismatches

let test_quorum_routes_converge_to_optimal () =
  List.iter
    (fun n ->
      match converged_routes_optimal ~config:Config.quorum_default ~n ~seed:71 () with
      | [] -> ()
      | (src, dst, cost) :: _ as l ->
          Alcotest.failf "n=%d: %d suboptimal routes, e.g. (%d,%d) cost %.0f" n
            (List.length l) src dst cost)
    [ 4; 9; 13; 25 ]

let test_fullmesh_routes_converge_to_optimal () =
  match converged_routes_optimal ~config:Config.ron_default ~n:16 ~seed:72 () with
  | [] -> ()
  | l -> Alcotest.failf "%d suboptimal routes" (List.length l)

let test_quorum_matches_fullmesh_routes () =
  let n = 16 and seed = 73 in
  let rtt = test_matrix ~seed n in
  let run config =
    let c = Cluster.create ~config ~rtt_ms:rtt ~seed () in
    Cluster.start c;
    Cluster.run_until c 150.;
    List.init n (fun src ->
        List.init n (fun dst ->
            if src = dst then 0.
            else begin
              match Cluster.best_hop c ~src ~dst with
              | None -> nan
              | Some hop ->
                  if hop = dst then rtt.(src).(dst)
                  else rtt.(src).(hop) +. rtt.(hop).(dst)
            end))
  in
  let q = run Config.quorum_default and f = run Config.ron_default in
  List.iteri
    (fun i row ->
      List.iteri
        (fun j cost -> check_float (Printf.sprintf "(%d,%d)" i j) (List.nth (List.nth f i) j) cost)
        row)
    q

let test_freshness_bounded_without_failures () =
  let n = 16 in
  let rtt = test_matrix ~seed:74 n in
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:74 () in
  Cluster.start c;
  Cluster.run_until c 300.;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        match Cluster.freshness c ~src ~dst with
        | None -> Alcotest.failf "no freshness for (%d,%d)" src dst
        | Some age ->
            if age > 16. then
              Alcotest.failf "(%d,%d) freshness %.1f > routing interval" src dst age
      end
    done
  done

let test_no_double_failures_without_failures () =
  let n = 16 in
  let rtt = test_matrix ~seed:75 n in
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:75 () in
  Cluster.start c;
  Cluster.run_until c 300.;
  for node = 0 to n - 1 do
    check_int
      (Printf.sprintf "node %d" node)
      0
      (Node.double_rendezvous_failure_count (Cluster.node c node))
  done

(* --- Traffic scaling sanity ----------------------------------------------------------- *)

let measured_routing_kbps ~config ~n ~seed =
  let rtt = Array.make_matrix n n 60. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let c = Cluster.create ~config ~rtt_ms:rtt ~seed () in
  Cluster.start c;
  Cluster.run_until c 420.;
  let values =
    List.init n (fun node -> Cluster.routing_kbps c ~node ~t0:120. ~t1:420.)
  in
  Apor_util.Stats.mean values

let test_quorum_uses_less_routing_bandwidth () =
  let q = measured_routing_kbps ~config:Config.quorum_default ~n:36 ~seed:81 in
  let f = measured_routing_kbps ~config:Config.ron_default ~n:36 ~seed:81 in
  check_bool (Printf.sprintf "quorum %.1f < fullmesh %.1f kbps" q f) true (q < f)

(* --- Membership / coordinator ---------------------------------------------------------- *)

let test_join_protocol_forms_overlay () =
  let n = 9 in
  let rtt = Array.make_matrix n n 50. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let c =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt
      ~membership:(Cluster.Coordinator { initial = n; rtt_ms = 80. }) ~seed:31 ()
  in
  Cluster.start c;
  Cluster.run_until c 240.;
  (* all nodes share the same full view *)
  for node = 0 to n - 1 do
    match Node.current_view (Cluster.node c node) with
    | None -> Alcotest.failf "node %d has no view" node
    | Some v -> check_int (Printf.sprintf "node %d view size" node) n (View.size v)
  done;
  (* and routes work *)
  match Cluster.best_hop c ~src:0 ~dst:(n - 1) with
  | None -> Alcotest.fail "no route after join"
  | Some _ -> ()

let test_views_are_consistent_after_join () =
  let n = 6 in
  let rtt = Array.make_matrix n n 50. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let c =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt
      ~membership:(Cluster.Coordinator { initial = n; rtt_ms = 80. }) ~seed:32 ()
  in
  Cluster.start c;
  Cluster.run_until c 240.;
  let versions =
    List.init n (fun node ->
        match Node.current_view (Cluster.node c node) with
        | Some v -> View.version v
        | None -> -1)
  in
  match versions with
  | [] -> ()
  | v0 :: rest -> List.iter (fun v -> check_int "same version" v0 v) rest

let test_static_membership_instant () =
  let c = small_cluster ~n:4 () in
  Cluster.start c;
  Cluster.run_until c 0.5;
  for node = 0 to 3 do
    check_bool
      (Printf.sprintf "node %d has view" node)
      true
      (Node.current_view (Cluster.node c node) <> None)
  done


(* --- Churn: joins and leaves mid-run --------------------------------------------- *)

let coordinator_cluster ~n ~seed =
  let rtt = Array.make_matrix n n 50. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt
    ~membership:(Cluster.Coordinator { initial = n; rtt_ms = 80. }) ~seed ()

let test_leave_shrinks_views_and_routes_survive () =
  let n = 8 in
  let c = coordinator_cluster ~n ~seed:41 in
  Cluster.start c;
  Cluster.run_until c 240.;
  let leaver = 3 in
  Node.leave (Cluster.node c leaver);
  Cluster.run_until c 400.;
  (* all remaining nodes agree on the shrunken view *)
  for node = 0 to n - 1 do
    if node <> leaver then begin
      match Node.current_view (Cluster.node c node) with
      | None -> Alcotest.failf "node %d lost its view" node
      | Some v ->
          check_int (Printf.sprintf "node %d view size" node) (n - 1) (View.size v);
          check_bool "leaver gone" false (View.contains_port v leaver)
    end
  done;
  (* and routing among the remaining nodes still works *)
  (match Cluster.best_hop c ~src:0 ~dst:7 with
  | Some _ -> ()
  | None -> Alcotest.fail "no route after leave");
  match Cluster.freshness c ~src:0 ~dst:7 with
  | Some age -> check_bool "recs flowing" true (age < 40.)
  | None -> Alcotest.fail "no freshness after leave"

let test_late_join_via_recovery () =
  let n = 8 in
  let c = coordinator_cluster ~n ~seed:43 in
  let late = 5 in
  (* node [late] is partitioned from everyone (including the coordinator)
     from the start: its Join messages are lost, so the first views exclude
     it; when its connectivity returns it joins late. *)
  Network.fail_node (Cluster.network c) late;
  Scenario.install ~engine:(Cluster.engine c) [ (300., Scenario.Node_up late) ];
  Cluster.start c;
  Cluster.run_until c 240.;
  (match Node.current_view (Cluster.node c 0) with
  | Some v ->
      check_int "initial view excludes the partitioned node" (n - 1) (View.size v)
  | None -> Alcotest.fail "no initial view");
  Cluster.run_until c 600.;
  (match Node.current_view (Cluster.node c 0) with
  | Some v -> check_int "view grew after late join" n (View.size v)
  | None -> Alcotest.fail "no view after join");
  match Cluster.best_hop c ~src:0 ~dst:late with
  | Some _ -> ()
  | None -> Alcotest.fail "no route to late joiner"

let test_rejoin_after_leave () =
  let n = 6 in
  let c = coordinator_cluster ~n ~seed:47 in
  Cluster.start c;
  Cluster.run_until c 240.;
  Node.leave (Cluster.node c 2);
  Cluster.run_until c 320.;
  (* restarting the node re-runs the join protocol *)
  Node.start (Cluster.node c 2);
  Cluster.run_until c 500.;
  match Node.current_view (Cluster.node c 0) with
  | Some v ->
      check_int "full view restored" n (View.size v);
      check_bool "rejoiner present" true (View.contains_port v 2)
  | None -> Alcotest.fail "no view"


(* --- Coordinator lease expiry --------------------------------------------------- *)

let test_coordinator_expires_silent_member () =
  let n = 6 in
  let rtt = Array.make_matrix n n 50. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  (* short lease so the test stays fast: refresh every 120 s *)
  let config = { Config.quorum_default with Config.membership_refresh_s = 120. } in
  let c =
    Cluster.create ~config ~rtt_ms:rtt
      ~membership:(Cluster.Coordinator { initial = n; rtt_ms = 80. }) ~seed:83 ()
  in
  Cluster.start c;
  Cluster.run_until c 100.;
  (match Node.current_view (Cluster.node c 0) with
  | Some v -> check_int "everyone joined" n (View.size v)
  | None -> Alcotest.fail "no view");
  (* node 4 goes permanently dark: its lease refreshes stop reaching the
     coordinator, which must expire it after the membership timeout *)
  Network.fail_node (Cluster.network c) 4;
  Cluster.run_until c 500.;
  match Node.current_view (Cluster.node c 0) with
  | Some v ->
      check_int "silent member expired" (n - 1) (View.size v);
      check_bool "node 4 gone" false (View.contains_port v 4)
  | None -> Alcotest.fail "no view after expiry"

(* --- Fuzz: random link flapping, then self-healing ------------------------------- *)

let test_survives_random_flapping_and_heals () =
  let n = 16 in
  let rtt = test_matrix ~seed:53 n in
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:53 () in
  let net = Cluster.network c in
  let rng = Apor_util.Rng.make ~seed:99 in
  (* random link flips every 5 seconds for half an hour of virtual time *)
  let engine = Cluster.engine c in
  let rec flap () =
    if Apor_sim.Engine.now engine < 1800. then begin
      let i = Apor_util.Rng.int rng n in
      let j = Apor_util.Rng.int rng n in
      if i <> j then Network.set_link_up net i j (Apor_util.Rng.bool rng);
      Apor_sim.Engine.schedule engine ~delay:5. flap
    end
    else begin
      (* calm down: restore every link *)
      for i = 0 to n - 1 do
        Network.recover_node net i
      done
    end
  in
  Apor_sim.Engine.schedule engine ~delay:60. flap;
  Cluster.start c;
  (* runs through the storm without raising *)
  Cluster.run_until c 1800.;
  (* ... and all routes converge back to optimal afterwards *)
  Cluster.run_until c 2100.;
  let m = Costmat.of_arrays rtt in
  let oracle = Fullmesh.one_hop_cost_matrix m in
  let bad = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        match Cluster.best_hop c ~src ~dst with
        | None -> incr bad
        | Some hop ->
            let cost =
              if hop = dst then rtt.(src).(dst) else rtt.(src).(hop) +. rtt.(hop).(dst)
            in
            if not (Float.equal cost oracle.(src).(dst)) then incr bad
      end
    done
  done;
  check_int "all routes optimal after healing" 0 !bad


(* --- Data plane -------------------------------------------------------------------- *)

module Driver = Apor_dataplane.Driver

(* A data-plane driver over the cluster, with no workload, and a lookup of
   each datagram's delivery (time, hops) in the driver's trace. *)
let data_driver c =
  let trace = Apor_trace.Collector.create ~now:(fun () -> Cluster.now c) () in
  let driver =
    Driver.create
      (Apor_dataplane.Host.of_cluster c)
      ~metrics:(Apor_dataplane.Metrics.create ~window_s:10. ~t0:0.)
      ~trace ()
  in
  let delivery id =
    Apor_trace.Collector.fold trace ~init:None ~f:(fun acc (e : Apor_trace.Collector.timed) ->
        match e.event with
        | Apor_trace.Event.Dgram_delivered d when d.id = id -> Some (e.time, d.hops)
        | _ -> acc)
  in
  (driver, delivery)

let test_data_delivery_healthy () =
  let n = 9 in
  let rtt = test_matrix ~seed:61 n in
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:61 () in
  let driver, delivery = data_driver c in
  Cluster.start c;
  Cluster.run_until c 150.;
  let id = Driver.send driver ~src:0 ~dst:8 ~direct:false in
  Cluster.run_until c 160.;
  (match delivery id with
  | Some (at, _) -> check_bool "delivered promptly" true (at < 155.)
  | None -> Alcotest.fail "packet lost on a healthy network");
  check_bool "no longer in flight" false (Driver.in_flight driver id)

let test_data_rides_detour_when_direct_fails () =
  let n = 9 in
  (* direct 0-8 will be cut; 0-4-8 stays *)
  let rtt = Array.make_matrix n n 100. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:62 () in
  let driver, delivery = data_driver c in
  Cluster.start c;
  Cluster.run_until c 150.;
  Network.set_link_up (Cluster.network c) 0 8 false;
  (* wait for failure detection and fresh recommendations *)
  Cluster.run_until c 250.;
  let direct_id = Driver.send driver ~src:0 ~dst:8 ~direct:true in
  let overlay_id = Driver.send driver ~src:0 ~dst:8 ~direct:false in
  Cluster.run_until c 260.;
  check_bool "direct fails" true (delivery direct_id = None);
  check_bool "direct still in flight" true (Driver.in_flight driver direct_id);
  (match delivery overlay_id with
  | Some (_, hops) -> check_int "relayed once" 1 hops
  | None -> Alcotest.fail "overlay packet lost despite a live detour")

let test_data_to_partitioned_dst_drops () =
  let n = 9 in
  let rtt = Array.make_matrix n n 100. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:63 () in
  let driver, delivery = data_driver c in
  Cluster.start c;
  Cluster.run_until c 150.;
  Network.fail_node (Cluster.network c) 8;
  Cluster.run_until c 400.;
  let id = Driver.send driver ~src:0 ~dst:8 ~direct:false in
  Cluster.run_until c 500.;
  check_bool "undeliverable packet dropped" true (delivery id = None)

let test_data_latency_matches_path () =
  let n = 9 in
  let rtt = Array.make_matrix n n 100. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:64 () in
  let driver, delivery = data_driver c in
  Cluster.start c;
  Cluster.run_until c 150.;
  let sent = Cluster.now c in
  let id = Driver.send driver ~src:0 ~dst:5 ~direct:false in
  Cluster.run_until c 151.;
  match delivery id with
  | Some (at, _) ->
      (* direct path: one-way delay = 50 ms *)
      Alcotest.(check (float 1e-6)) "one-way delay" 0.05 (at -. sent)
  | None -> Alcotest.fail "not delivered"


(* --- View hygiene: state from other views must be discarded ----------------------- *)

let test_stale_view_messages_discarded () =
  let n = 9 in
  let c = small_cluster ~n () in
  Cluster.start c;
  Cluster.run_until c 200.;
  let node0 = Cluster.node c 0 in
  let route_before = Node.best_hop node0 ~dst_port:8 in
  (* fabricate a recommendation from a different membership view claiming a
     bogus hop; it must be ignored *)
  Node.handle_message node0 ~src_port:2
    (Message.Recommend { view = 999; epoch = 0; entries = [ (8, 3) ] });
  Alcotest.(check (option int)) "stale view ignored" route_before
    (Node.best_hop node0 ~dst_port:8);
  (* same for link state of the wrong size *)
  let alien =
    Apor_linkstate.Snapshot.create ~owner:0
      (Array.make 5 Apor_linkstate.Entry.unreachable)
  in
  Node.handle_message node0 ~src_port:2
    (Message.Link_state { view = 1; epoch = 0; snapshot = alien });
  Alcotest.(check (option int)) "alien snapshot ignored" route_before
    (Node.best_hop node0 ~dst_port:8)

let test_out_of_range_recommendation_ignored () =
  let n = 9 in
  let c = small_cluster ~n () in
  Cluster.start c;
  Cluster.run_until c 200.;
  let node0 = Cluster.node c 0 in
  let route_before = Node.best_hop node0 ~dst_port:8 in
  Node.handle_message node0 ~src_port:2
    (Message.Recommend { view = 1; epoch = 0; entries = [ (700, 3); (8, 900); (-1, 2) ] });
  Alcotest.(check (option int)) "garbage entries ignored" route_before
    (Node.best_hop node0 ~dst_port:8)

(* --- Router odds and ends ----------------------------------------------------------------- *)

let test_router_server_ports_match_grid () =
  let n = 9 in
  let c = small_cluster ~n () in
  Cluster.start c;
  Cluster.run_until c 10.;
  match Node.quorum_router (Cluster.node c 0) with
  | None -> Alcotest.fail "expected quorum router"
  | Some r ->
      (* static view: ports = ranks; node 0's grid servers are 1,2,3,6 *)
      Alcotest.(check (list int)) "servers" [ 1; 2; 3; 6 ] (Router.rendezvous_server_ports r)

let test_best_hop_to_self () =
  let c = small_cluster ~n:4 () in
  Cluster.start c;
  Cluster.run_until c 100.;
  Alcotest.(check (option int)) "self" (Some 0) (Cluster.best_hop c ~src:0 ~dst:0)

(* --- Router state ------------------------------------------------------------------ *)

(* A router alone, with no network: a static view of ports [0, m), a
   monitor that never probes (every peer alive until forced dead) unless
   given peers, and effects that hand each probe to [send_probe] and each
   message to [send] (by default dropped).  Time moves only when the test
   says. *)
let bare_router ?(metric = Config.quorum_default.Config.metric)
    ?(send_probe = fun ~dst:_ ~seq:_ -> ()) ?(send = fun ~dst_port:_ _ -> ()) ~m ~self () =
  let config = { Config.quorum_default with Config.metric } in
  let monitor =
    Monitor.create ~config ~self ~capacity:m ~rng:(Apor_util.Rng.make ~seed:1)
      {
        Monitor.send_probe;
        set_wakeup = (fun ~at:_ -> ());
        on_peer_death = ignore;
        on_peer_recovery = ignore;
      }
  in
  let r =
    Router.create ~config ~self_port:self ~rng:(Apor_util.Rng.make ~seed:2) ~monitor
      { Router.send; set_tick_timer = (fun ~delay:_ -> ()) }
  in
  Router.set_view r ~now:0. (View.create ~version:1 ~members:(List.init m Fun.id));
  (r, monitor)

let recommend r ~now ~src entries =
  Router.handle_message r ~now ~src_port:src (Message.Recommend { view = 1; epoch = 0; entries })

(* On the 3x3 grid node 0 reaches 8 only through the crossing cells 2 and
   6.  With both dead, 8 gets a failover server from its own row and
   column, 5 or 7, whose recommendation times live outside node 0's
   connecting slices.  Servers 1 and 3 keep every other destination
   connected.  Returns the failover servers in use after each tick from
   90 s (the end of warm-up) to [until]. *)
let failover_servers ~candidates_recommend ~until =
  let r, monitor = bare_router ~m:9 ~self:0 () in
  Monitor.force_status monitor 2 ~up:false;
  Monitor.force_status monitor 6 ~up:false;
  Router.start r;
  let every = List.init 8 (fun d -> (d + 1, d + 1)) in
  let seen = ref [] in
  let now = ref 15. in
  while !now <= until do
    recommend r ~now:(!now -. 1.) ~src:1 every;
    recommend r ~now:(!now -. 1.) ~src:3 every;
    (* Recorded from the start: before the episode that uses the server. *)
    if candidates_recommend then begin
      recommend r ~now:(!now -. 1.) ~src:5 [ (8, 8) ];
      recommend r ~now:(!now -. 1.) ~src:7 [ (8, 8) ]
    end;
    Router.on_tick_timer r ~now:!now;
    if !now >= 90. then
      seen :=
        List.filter
          (fun p -> not (List.mem p [ 1; 2; 3; 6 ]))
          (Router.rendezvous_server_ports r)
        :: !seen;
    now := !now +. 15.
  done;
  List.rev !seen

let test_router_failover_overflow_keeps_episode () =
  match failover_servers ~candidates_recommend:true ~until:400. with
  | [ f ] :: rest ->
      check_bool "a candidate of 8's row or column" true (f = 5 || f = 7);
      check_bool "the same server throughout" true (List.for_all (( = ) [ f ]) rest)
  | _ -> Alcotest.fail "expected one failover server from the end of warm-up"

let test_router_failover_silent_server_replaced () =
  match failover_servers ~candidates_recommend:false ~until:400. with
  | [ f ] :: rest ->
      check_bool "a silent failover server is replaced" true (List.exists (( <> ) [ f ]) rest)
  | _ -> Alcotest.fail "expected one failover server from the end of warm-up"

(* Double-rendezvous-failure counts on an incomplete grid (95 nodes: a
   10x10 grid with five cells in its last row, so extra assignments
   exist) against a model written from [Grid.connecting]: a pair stays
   connected while one of its connecting servers (self excluded) is alive
   and recommended the destination within the remote timeout, counting
   from the view's start for a server that never did.  Recommendations
   come from arbitrary servers, most of them outside the slices. *)
let gen_rec_case =
  QCheck.Gen.(
    let* self = int_range 0 94 in
    let* dead = list_size (int_range 0 12) (int_range 0 94) in
    let* recs =
      list_size (int_range 0 600)
        (triple (float_range 0. 250.) (int_range 0 94) (int_range 0 94))
    in
    return (self, dead, List.sort compare recs))

let rec_model_qcheck =
  QCheck.Test.make ~count:60 ~name:"slices = Grid.connecting (incomplete grid)"
    (QCheck.make gen_rec_case)
    (fun (self, dead, recs) ->
      let m = 95 in
      let grid = Apor_quorum.Grid.build m in
      let r, monitor = bare_router ~m ~self () in
      List.iter (fun p -> if p <> self then Monitor.force_status monitor p ~up:false) dead;
      let last = Hashtbl.create 64 in
      let remote = Config.quorum_default.Config.remote_failure_factor *. 15. in
      let model ~now =
        let failed k dst =
          (k <> self && not (Monitor.alive monitor k))
          || now -. Option.value (Hashtbl.find_opt last (k, dst)) ~default:0. > remote
        in
        let count = ref 0 in
        for dst = 0 to m - 1 do
          if dst <> self then begin
            let conn = List.filter (( <> ) self) (Apor_quorum.Grid.connecting grid self dst) in
            if not (List.exists (fun k -> not (failed k dst)) conn) then incr count
          end
        done;
        !count
      in
      let pending = ref recs in
      List.for_all
        (fun now ->
          let rec feed () =
            match !pending with
            | (at, src, dst) :: rest when at <= now ->
                pending := rest;
                recommend r ~now:at ~src [ (dst, (dst + 1) mod m) ];
                if dst <> self then Hashtbl.replace last (src, dst) at;
                feed ()
            | _ -> ()
          in
          feed ();
          let got = Router.double_rendezvous_failure_count r ~now and want = model ~now in
          if got <> want then
            QCheck.Test.fail_reportf "at %.0f s: router %d, model %d" now got want;
          true)
        [ 95.; 120.; 150.; 200.; 260. ])

(* A warmed static cluster's per-view bookkeeping beyond the table and
   cache is linear in n: ~3n connecting slots on an 8x8 grid, each an int
   and an unboxed float, plus the offsets (reads 488 words at n = 64),
   and two route arrays and the freshness array of n.  A float boxed per
   server and destination, or a list per destination, does not fit. *)
let test_router_state_words () =
  let n = 64 in
  let c =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:(test_matrix ~seed:5 n) ~seed:5 ()
  in
  Cluster.start c;
  Cluster.run_until c 200.;
  for port = 0 to n - 1 do
    match Node.quorum_router (Cluster.node c port) with
    | None -> Alcotest.fail "expected quorum router"
    | Some r ->
        let w = Router.state_words r in
        if w.Router.rendezvous_words > (8 * n) + 64 then
          Alcotest.failf "node %d: %d rendezvous words, bound %d" port w.Router.rendezvous_words
            ((8 * n) + 64);
        if w.Router.routes_words > (3 * n) + 8 then
          Alcotest.failf "node %d: %d route words, bound %d" port w.Router.routes_words
            ((3 * n) + 8)
  done

(* --- The announced row ----------------------------------------------------------- *)

(* A router whose monitor really probes, over a scripted link with no
   network: on the 3x3 grid of ports [0, 9), node 0 probes the other
   eight, each probe is answered 20 ms later unless [lose port seq] says
   it is lost, and the router ticks every routing interval from 15 s,
   just after each port in [recommenders] recommended the direct path to
   every destination, which keeps failover away from the pairs they
   connect.  [advance] runs replies, probe wakeups and ticks in time
   order up to and including [until]; [sent] collects the router's
   messages, newest first, with their send times and what the monitor
   measured then. *)
type driven = {
  router : Router.t;
  monitor : Monitor.t;
  mutable now : float;
  mutable replies : (float * int * int) list;
  mutable next_tick : float;
  mutable sent : (float * int * Message.t * Apor_linkstate.Snapshot.t) list;
  mutable lose : int -> int -> bool;
  recommenders : int list;
}

(* What [monitor] measures right now, as node 0's snapshot. *)
let measured monitor =
  Apor_linkstate.Snapshot.create ~owner:0
    (Array.init 9 (fun p ->
         if p = 0 then Apor_linkstate.Entry.self else Monitor.entry_for monitor p))

let driven_router ~metric ~recommenders =
  let m = 9 in
  let d = ref None in
  let get () = Option.get !d in
  let router, monitor =
    bare_router ~metric
      ~send_probe:(fun ~dst ~seq ->
        let d = get () in
        if not (d.lose dst seq) then d.replies <- (d.now +. 0.020, dst, seq) :: d.replies)
      ~send:(fun ~dst_port msg ->
        let d = get () in
        d.sent <- (d.now, dst_port, msg, measured d.monitor) :: d.sent)
      ~m ~self:0 ()
  in
  d :=
    Some
      {
        router;
        monitor;
        now = 0.;
        replies = [];
        next_tick = Config.quorum_default.Config.routing_interval_s;
        sent = [];
        lose = (fun _ _ -> false);
        recommenders;
      };
  Monitor.set_peers monitor ~now:0. (List.init (m - 1) (fun i -> i + 1));
  Router.start router;
  get ()

let rec advance d ~until =
  let reply = List.fold_left (fun acc (at, _, _) -> Float.min acc at) infinity d.replies in
  let probe = Option.value (Monitor.next_due d.monitor) ~default:infinity in
  let next = Float.min reply (Float.min probe d.next_tick) in
  if next > until then d.now <- until
  else begin
    d.now <- next;
    if reply = next then begin
      let due, later = List.partition (fun (at, _, _) -> at = next) d.replies in
      d.replies <- later;
      List.iter (fun (_, src, seq) -> Monitor.handle_reply d.monitor ~now:next ~src ~seq) due
    end
    else if probe = next then Monitor.on_wakeup d.monitor ~now:next
    else begin
      List.iter
        (fun k -> recommend d.router ~now:next ~src:k (List.init 8 (fun i -> (i + 1, i + 1))))
        d.recommenders;
      Router.on_tick_timer d.router ~now:next;
      d.next_tick <- next +. Config.quorum_default.Config.routing_interval_s
    end;
    advance d ~until
  end

(* Lose one probe to each of [ports] once every link has settled, and
   return the link-state messages of the first tick after the timeouts,
   whose only measured changes are those cells' loss bytes: 0 before, the
   timeout's 0.5 and, if the rapid re-probe's reply came in first, 0.25
   after. *)
let loss_only_tick ?(ports = [ 5 ]) ~metric () =
  let d = driven_router ~metric ~recommenders:[ 1; 2; 3; 6 ] in
  advance d ~until:100.;
  let before = measured d.monitor in
  let armed = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace armed p ()) ports;
  d.lose <-
    (fun port _ ->
      Hashtbl.mem armed port
      && begin
           Hashtbl.remove armed port;
           true
         end);
  while List.exists (fun p -> Monitor.loss d.monitor p = 0.) ports do
    advance d ~until:(d.now +. 1.)
  done;
  d.sent <- [];
  advance d ~until:d.next_tick;
  let after = measured d.monitor in
  check_bool "the loss bytes moved" false (Apor_linkstate.Snapshot.equal before after);
  check_bool "and only they"
    true
    (Apor_linkstate.Snapshot.equal before
       (Apor_linkstate.Snapshot.with_entries after
          (List.map (fun p -> (p, Apor_linkstate.Snapshot.entry before p)) ports)));
  ( before,
    List.filter_map
      (fun (_, dst, msg, _) ->
        match msg with
        | Message.Link_state_delta _ | Message.Link_state _ -> Some (dst, msg)
        | _ -> None)
      (List.rev d.sent) )

let test_loss_only_tick_sends_empty_deltas () =
  let servers = [ 1; 2; 3; 6 ] in
  let _, sent = loss_only_tick ~metric:Apor_linkstate.Metric.Latency () in
  Alcotest.(check (list int)) "one announcement per server" servers (List.map fst sent);
  List.iter
    (fun (dst, msg) ->
      match msg with
      | Message.Link_state_delta { delta = { Apor_linkstate.Wire.Delta.changes = []; _ }; _ } ->
          check_int "a zero-change delta is 52 B" 52 (Message.size_bytes msg)
      | msg -> Alcotest.failf "to %d: %a, not a zero-change delta" dst Message.pp msg)
    sent;
  (* The metric that reads the loss byte announces it. *)
  List.iter
    (fun (dst, msg) ->
      match msg with
      | Message.Link_state_delta
          { delta = { Apor_linkstate.Wire.Delta.changes = [ (5, _) ]; _ }; _ } ->
          check_int "one change, 57 B" 57 (Message.size_bytes msg)
      | msg -> Alcotest.failf "to %d: %a, not cell 5 alone" dst Message.pp msg)
    (snd
       (loss_only_tick ~metric:(Apor_linkstate.Metric.Loss_sensitive { retry_penalty_ms = 100. }) ()))

(* On 9 nodes a whole-cell delta of 5 changes (6 + 25 B) outweighs the
   27-byte snapshot.  A tick whose measurement moved in 5 cells, loss
   bytes alone, goes out in full to every server, as it did when deltas
   carried whole cells, and the snapshot is the announced row: the
   latency-visible delta was empty, so it is the row announced before. *)
let test_loss_heavy_tick_goes_in_full () =
  let before, sent =
    loss_only_tick ~ports:[ 1; 3; 4; 5; 7 ] ~metric:Apor_linkstate.Metric.Latency ()
  in
  Alcotest.(check (list int)) "one announcement per server" [ 1; 2; 3; 6 ] (List.map fst sent);
  List.iter
    (fun (dst, msg) ->
      match msg with
      | Message.Link_state { snapshot; _ } ->
          check_bool "the announced row" true (Apor_linkstate.Snapshot.equal before snapshot)
      | msg -> Alcotest.failf "to %d: %a, not a full snapshot" dst Message.pp msg)
    sent

(* Links 0-2 and 0-6 lose every probe, so 8 loses both crossing cells and
   0 recruits failover servers, each first sent a full snapshot; links to
   4, 5 and 7 lose every third probe, so the measured loss bytes move
   while the latencies stay put.  Twice, a server asks for a resync.
   Every full snapshot stamped [e] must be, byte for byte, the row server
   1, a default server sent only deltas after the first tick, rebuilt at
   [e] — also when it differs from what the monitor measured at the
   time. *)
let test_full_snapshots_match_delta_rows () =
  let open Apor_linkstate in
  let d = driven_router ~metric:Metric.Latency ~recommenders:[ 1; 3 ] in
  d.lose <-
    (fun port seq ->
      port = 2 || port = 6 || ((port = 4 || port = 5 || port = 7) && seq mod 3 = 1));
  advance d ~until:150.;
  let resync ~server =
    Router.handle_message d.router ~now:d.now ~src_port:server
      (Message.Ls_resync { view = 1; owner = 0 })
  in
  resync ~server:3;
  advance d ~until:260.;
  resync ~server:1;
  advance d ~until:400.;
  let table = Table.create ~n:9 ~owner:1 and rebuilt = Hashtbl.create 32 in
  let fulls = ref [] in
  List.iter
    (fun (at, dst, msg, now_measured) ->
      match msg with
      | Message.Link_state { epoch; snapshot; _ } ->
          if dst = 1 then begin
            check_bool "server 1 stores it" true (Table.ingest table snapshot ~epoch ~now:at);
            Hashtbl.replace rebuilt epoch (Snapshot.copy snapshot)
          end;
          fulls := (at, dst, epoch, snapshot, now_measured) :: !fulls
      | Message.Link_state_delta { delta; _ } when dst = 1 -> (
          match Table.apply_delta table delta ~now:at with
          | `Applied row -> Hashtbl.replace rebuilt delta.Wire.Delta.epoch (Snapshot.copy row)
          | `Stale | `Gap | `Malformed -> Alcotest.fail "server 1 missed a delta")
      | _ -> ())
    (List.rev d.sent);
  (* the first tick's full snapshots are the only ones before 16 s *)
  let later = List.filter (fun (at, _, _, _, _) -> at > 16.) !fulls in
  let failover = List.filter (fun (_, dst, _, _, _) -> not (List.mem dst [ 1; 2; 3; 6 ])) later in
  check_bool
    (Printf.sprintf "failover snapshots sent (%d)" (List.length failover))
    true (failover <> []);
  check_int "resync replies" 2
    (List.length (List.filter (fun (_, dst, _, _, _) -> dst = 1 || dst = 3) later));
  List.iter
    (fun (at, dst, epoch, snapshot, _) ->
      match Hashtbl.find_opt rebuilt epoch with
      | Some row ->
          if not (Snapshot.equal row snapshot) then
            Alcotest.failf "t=%.3f: the full snapshot to %d at epoch %d is not the delta-built row"
              at dst epoch
      | None -> Alcotest.failf "t=%.3f: epoch %d never reached server 1" at epoch)
    later;
  (* Some of them differ from what was measured when they were sent: a
     full snapshot carrying the measurement would fail the check above
     there. *)
  let stale = List.filter (fun (_, _, _, snapshot, m) -> not (Snapshot.equal snapshot m)) later in
  check_bool
    (Printf.sprintf "%d of %d full snapshots differ from the measurement" (List.length stale)
       (List.length later))
    true (stale <> [])

(* --- Delta recommendations ---------------------------------------------------------- *)

(* On a static, lossless network with constant RTTs nothing a batch holds
   ever changes, so once every server has sent every client a batch, each
   later one is a header-only reaffirmation. *)
let test_static_batches_reaffirm () =
  let c = small_cluster ~n:16 () in
  let sent = ref [] in
  for port = 0 to 15 do
    Runtime.set_tap
      (Node.runtime (Cluster.node c port))
      (Some
         (fun now _ outputs ->
           List.iter
             (function
               | Node_core.Send
                   {
                     dst_port;
                     msg = (Message.Recommend _ | Message.Recommend_delta _ | Message.Rec_resync _) as msg;
                   }
                 when now >= 150. ->
                   sent := (now, port, dst_port, msg) :: !sent
               | _ -> ())
             outputs))
  done;
  Cluster.start c;
  Cluster.run_until c 300.;
  check_bool (Printf.sprintf "batches sent (%d)" (List.length !sent)) true (List.length !sent > 500);
  List.iter
    (fun (now, src, dst, msg) ->
      match msg with
      | Message.Recommend_delta { changed = []; _ } -> ()
      | msg ->
          Alcotest.failf "t=%.3f %d->%d sent %a, not an empty reaffirmation" now src dst Message.pp
            msg)
    !sent

(* With no loss, a client rebuilding delta batches applies exactly what
   full batches would have given it: the same routes, at the same
   instants, from the same servers, and the same [Node_core.Recommend]
   outputs.  [Config.full_table] sends every batch in full (and full
   snapshots, which on a lossless network fill the same tables); RTTs
   that move mid-run make the deltas carry changes. *)
let test_lossless_deltas_apply_full_batches () =
  let n = 16 in
  let run config =
    let tr = Apor_trace.Collector.create () in
    let applied = ref [] and deltas = ref 0 in
    Apor_trace.Collector.subscribe tr (fun tv ->
        match tv.Apor_trace.Collector.event with
        | Apor_trace.Event.Rec_applied { local = false; _ } as ev ->
            applied := (tv.Apor_trace.Collector.time, ev) :: !applied
        | _ -> ());
    let c = Cluster.create ~config ~rtt_ms:(test_matrix ~seed:5 n) ~trace:tr ~seed:11 () in
    let surfaced = ref [] in
    for port = 0 to n - 1 do
      Runtime.set_tap
        (Node.runtime (Cluster.node c port))
        (Some
           (fun now _ outputs ->
             List.iter
               (function
                 | Node_core.Recommend { server_port; dst_port; hop_port } ->
                     surfaced := (now, port, server_port, dst_port, hop_port) :: !surfaced
                 | Node_core.Send { msg = Message.Recommend_delta { changed = _ :: _; _ }; _ } ->
                     incr deltas
                 | _ -> ())
               outputs))
    done;
    Cluster.start c;
    List.iter
      (fun (at, i, j) ->
        Cluster.run_until c at;
        let net = Cluster.network c in
        Network.set_rtt_ms net i j (3. *. Network.rtt_ms net i j);
        Network.set_rtt_ms net j i (Network.rtt_ms net i j))
      [ (150., 0, 5); (200., 3, 12); (250., 7, 9) ];
    Cluster.run_until c 400.;
    (List.rev !applied, List.rev !surfaced, !deltas)
  in
  let applied, surfaced, deltas = run Config.quorum_default in
  let applied_full, surfaced_full, _ = run (Config.full_table Config.quorum_default) in
  check_bool (Printf.sprintf "deltas carried changes (%d)" deltas) true (deltas > 10);
  check_bool "non-trivial" true (List.length applied > 1000);
  check_bool "same Rec_applied stream" true (applied = applied_full);
  check_bool "same Recommend outputs" true (surfaced = surfaced_full)

(* Drop deltas from server 1 to client 0 and watch the client recover,
   with the oracle (integrity check included) watching the whole run.
   A lost delta that changed nothing costs nothing: the next one builds
   on the batch the server has sent unchanged since, which the client
   still holds.  A lost delta that moved a hop leaves the client short
   of the next delta's base: it reports a gap and asks for the whole
   batch, and must hold the server's batch again one routing interval
   plus one RTT after the lost delta would have arrived. *)
let test_dropped_rec_delta_heals () =
  let server = 1 and client = 0 and r = Config.quorum_default.Config.routing_interval_s in
  let rtt = 0.040 in
  let tr = Apor_trace.Collector.create () in
  let oracle =
    Apor_trace.Oracle.create ~metric:Config.quorum_default.Config.metric
      ~staleness_s:(Config.staleness_s Config.quorum_default) ()
  in
  Apor_trace.Oracle.attach oracle tr;
  let gaps = ref [] and computed = ref [] and applied = ref [] in
  Apor_trace.Collector.subscribe tr (fun tv ->
      let time = tv.Apor_trace.Collector.time in
      match tv.Apor_trace.Collector.event with
      | Apor_trace.Event.Rec_gap { node; server = k; _ } when node = client && k = server ->
          gaps := time :: !gaps
      | Apor_trace.Event.Rec_computed { server = k; client = i; entries; _ }
        when k = server && i = client ->
          computed := (time, entries) :: !computed
      | Apor_trace.Event.Rec_applied { node; server = k; dst; hop; local = false; _ }
        when node = client && k = server ->
          applied := (time, (dst, hop)) :: !applied
      | _ -> ());
  let c = small_cluster ~n:16 ~trace:tr () in
  let net = Cluster.network c and engine = Cluster.engine c in
  (* The server's runtime tap sees a tick's outputs before the engine
     sends them: [armed] counts the sends to the client that precede the
     first delta [drop] selects, and the engine tap cuts the link for that
     one packet. *)
  let drop = ref (fun _ -> false) and armed = ref None and dropped_at = ref None in
  Runtime.set_tap
    (Node.runtime (Cluster.node c server))
    (Some
       (fun _ _ outputs ->
         let rec find skip = function
           | Node_core.Send { dst_port; msg } :: _ when dst_port = client && !drop msg ->
               armed := Some skip
           | Node_core.Send { dst_port; _ } :: rest when dst_port = client -> find (skip + 1) rest
           | _ :: rest -> find skip rest
           | [] -> ()
         in
         if !dropped_at = None then find 0 outputs));
  Engine.set_tap engine
    (Some
       {
         Engine.on_send =
           (fun ~cls:_ ~src ~dst ~bytes:_ ->
             if src = server && dst = client then
               match !armed with
               | Some 0 ->
                   armed := None;
                   dropped_at := Some (Engine.now engine);
                   Network.set_link_up net server client false
               | Some k -> armed := Some (k - 1)
               | None -> ());
         on_deliver = (fun ~cls:_ ~src:_ ~dst:_ ~bytes:_ -> ());
         on_drop =
           (fun ~cls:_ ~src ~dst ~bytes:_ ->
             if src = server && dst = client then Network.set_link_up net server client true);
       });
  let rec drop_next pred ~until =
    drop := pred;
    dropped_at := None;
    Cluster.run_until c (Cluster.now c +. 0.1);
    match !dropped_at with
    | Some t -> t
    | None when Cluster.now c < until -> drop_next pred ~until
    | None -> Alcotest.fail "no delta dropped"
  in
  let applied_after t = List.filter (fun (t', _) -> t' > t) !applied in
  let latest () = match !computed with (_, e) :: _ -> e | [] -> Alcotest.fail "no batch computed" in
  Cluster.start c;
  Cluster.run_until c 200.;
  (* an empty reaffirmation, lost *)
  let t_drop =
    drop_next
      (function Message.Recommend_delta { changed = []; _ } -> true | _ -> false)
      ~until:220.
  in
  Cluster.run_until c (t_drop +. (rtt /. 2.) +. r +. 1e-6);
  check_int "no gap after a lost reaffirmation" 0 (List.length !gaps);
  check_int "the next delta applied in full" (List.length (latest ()))
    (List.length (applied_after (t_drop +. 1.)));
  (* the direct path 0-5 slows down, so the server moves 0's hop to 5;
     lose the delta that carries the move *)
  Network.set_rtt_ms net 0 5 200.;
  Network.set_rtt_ms net 5 0 200.;
  let t_drop =
    drop_next
      (function Message.Recommend_delta { changed = _ :: _; _ } -> true | _ -> false)
      ~until:400.
  in
  let deadline = t_drop +. (rtt /. 2.) +. r +. rtt +. 1e-6 in
  Cluster.run_until c deadline;
  (match !gaps with
  | [ t ] ->
      check_bool (Printf.sprintf "gap at %.3f, one interval after the drop at %.3f" t t_drop) true
        (t > t_drop +. r && t < deadline)
  | gaps -> Alcotest.failf "%d gaps by the deadline, expected 1" (List.length gaps));
  let latest = latest () in
  let healed_at = match !applied with (t, _) :: _ -> t | [] -> Alcotest.fail "nothing applied" in
  let healed = List.filter_map (fun (t, e) -> if t = healed_at then Some e else None) !applied in
  check_bool
    (Printf.sprintf "the whole batch re-applied at %.3f, by %.3f" healed_at deadline)
    true
    (healed_at > t_drop +. r && List.sort compare healed = List.sort compare latest);
  (* the next delta builds on the resent batch *)
  Cluster.run_until c (deadline +. r);
  check_int "no second gap" 1 (List.length !gaps);
  check_int "next delta applied in full" (List.length latest)
    (List.length (applied_after deadline));
  check_int "oracle" 0 (Apor_trace.Oracle.violation_count oracle)

let () =
  Alcotest.run "apor_overlay"
    [
      ( "config",
        [
          Alcotest.test_case "paper defaults" `Quick test_config_defaults_match_paper;
          Alcotest.test_case "validation" `Quick test_config_validation_catches_bad;
        ] );
      ( "message",
        [
          Alcotest.test_case "sizes" `Quick test_message_sizes;
          Alcotest.test_case "classes" `Quick test_message_classes;
        ] );
      ( "view",
        [
          Alcotest.test_case "ranks" `Quick test_view_ranks;
          Alcotest.test_case "rejects empty" `Quick test_view_rejects_empty;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "measures latency" `Quick test_monitor_measures_latency;
          Alcotest.test_case "detects failure fast" `Quick test_monitor_detects_failure_within_period;
          Alcotest.test_case "recovers" `Quick test_monitor_recovers;
          Alcotest.test_case "loss estimate" `Slow test_monitor_loss_estimate;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "quorum routes optimal" `Slow test_quorum_routes_converge_to_optimal;
          Alcotest.test_case "fullmesh routes optimal" `Slow test_fullmesh_routes_converge_to_optimal;
          Alcotest.test_case "quorum = fullmesh" `Slow test_quorum_matches_fullmesh_routes;
          Alcotest.test_case "freshness bounded" `Slow test_freshness_bounded_without_failures;
          Alcotest.test_case "no spurious double failures" `Slow test_no_double_failures_without_failures;
        ] );
      ( "traffic",
        [ Alcotest.test_case "quorum cheaper than fullmesh" `Slow test_quorum_uses_less_routing_bandwidth ] );
      ( "membership",
        [
          Alcotest.test_case "join protocol" `Slow test_join_protocol_forms_overlay;
          Alcotest.test_case "consistent views" `Slow test_views_are_consistent_after_join;
          Alcotest.test_case "static instant" `Quick test_static_membership_instant;
        ] );
      ( "churn",
        [
          Alcotest.test_case "leave shrinks views" `Slow test_leave_shrinks_views_and_routes_survive;
          Alcotest.test_case "late join via recovery" `Slow test_late_join_via_recovery;
          Alcotest.test_case "rejoin after leave" `Slow test_rejoin_after_leave;
          Alcotest.test_case "coordinator expires silent member" `Slow test_coordinator_expires_silent_member;
        ] );
      ( "data-plane",
        [
          Alcotest.test_case "delivery when healthy" `Quick test_data_delivery_healthy;
          Alcotest.test_case "detour when direct fails" `Quick test_data_rides_detour_when_direct_fails;
          Alcotest.test_case "partitioned dst drops" `Quick test_data_to_partitioned_dst_drops;
          Alcotest.test_case "latency matches path" `Quick test_data_latency_matches_path;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "random flapping then heals" `Slow test_survives_random_flapping_and_heals;
        ] );
      ( "router",
        [
          Alcotest.test_case "stale views discarded" `Quick test_stale_view_messages_discarded;
          Alcotest.test_case "garbage recommendations ignored" `Quick test_out_of_range_recommendation_ignored;
          Alcotest.test_case "server ports match grid" `Quick test_router_server_ports_match_grid;
          Alcotest.test_case "best hop to self" `Quick test_best_hop_to_self;
          Alcotest.test_case "failover pairs outside the slices" `Quick
            test_router_failover_overflow_keeps_episode;
          Alcotest.test_case "silent failover server replaced" `Quick
            test_router_failover_silent_server_replaced;
          QCheck_alcotest.to_alcotest rec_model_qcheck;
          Alcotest.test_case "state words linear in n" `Quick test_router_state_words;
          Alcotest.test_case "loss-only tick sends empty deltas" `Quick
            test_loss_only_tick_sends_empty_deltas;
          Alcotest.test_case "loss-heavy tick goes in full" `Quick
            test_loss_heavy_tick_goes_in_full;
          Alcotest.test_case "full snapshots = delta-built rows" `Quick
            test_full_snapshots_match_delta_rows;
        ] );
      ( "rec-delta",
        [
          Alcotest.test_case "static batches reaffirm" `Quick test_static_batches_reaffirm;
          Alcotest.test_case "lossless deltas apply full batches" `Quick
            test_lossless_deltas_apply_full_batches;
          Alcotest.test_case "dropped delta heals" `Quick test_dropped_rec_delta_heals;
        ] );
    ]
