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
    (Message.size_bytes (Message.Recommend { view = 1; entries = List.init 10 (fun i -> (i, i)) }));
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
let small_cluster ?(config = Config.quorum_default) ?(n = 3) ?(seed = 11) () =
  let rtt = Array.make_matrix n n 40. in
  for i = 0 to n - 1 do
    rtt.(i).(i) <- 0.
  done;
  Cluster.create ~config ~rtt_ms:rtt ~seed ()

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
      ~membership:(Cluster.Coordinator { rtt_ms = 80. }) ~seed:31 ()
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
      ~membership:(Cluster.Coordinator { rtt_ms = 80. }) ~seed:32 ()
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
    ~membership:(Cluster.Coordinator { rtt_ms = 80. }) ~seed ()

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
      ~membership:(Cluster.Coordinator { rtt_ms = 80. }) ~seed:83 ()
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

let test_data_delivery_healthy () =
  let n = 9 in
  let rtt = test_matrix ~seed:61 n in
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:61 () in
  Cluster.start c;
  Cluster.run_until c 150.;
  let id = Cluster.send_data c ~src:0 ~dst:8 in
  Cluster.run_until c 160.;
  (match Cluster.data_delivered_at c id with
  | Some at -> check_bool "delivered promptly" true (at < 155.)
  | None -> Alcotest.fail "packet lost on a healthy network")

let test_data_rides_detour_when_direct_fails () =
  let n = 9 in
  (* direct 0-8 will be cut; 0-4-8 stays *)
  let rtt = Array.make_matrix n n 100. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:62 () in
  Cluster.start c;
  Cluster.run_until c 150.;
  Network.set_link_up (Cluster.network c) 0 8 false;
  (* wait for failure detection and fresh recommendations *)
  Cluster.run_until c 250.;
  let direct_id = Cluster.send_data_direct c ~src:0 ~dst:8 in
  let overlay_id = Cluster.send_data c ~src:0 ~dst:8 in
  Cluster.run_until c 260.;
  check_bool "direct fails" true (Cluster.data_delivered_at c direct_id = None);
  (match Cluster.data_delivered_at c overlay_id with
  | Some _ -> ()
  | None -> Alcotest.fail "overlay packet lost despite a live detour")

let test_data_to_partitioned_dst_drops () =
  let n = 9 in
  let rtt = Array.make_matrix n n 100. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:63 () in
  Cluster.start c;
  Cluster.run_until c 150.;
  Network.fail_node (Cluster.network c) 8;
  Cluster.run_until c 400.;
  let id = Cluster.send_data c ~src:0 ~dst:8 in
  Cluster.run_until c 500.;
  check_bool "undeliverable packet dropped" true (Cluster.data_delivered_at c id = None)

let test_data_latency_matches_path () =
  let n = 9 in
  let rtt = Array.make_matrix n n 100. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed:64 () in
  Cluster.start c;
  Cluster.run_until c 150.;
  let sent = Cluster.now c in
  let id = Cluster.send_data c ~src:0 ~dst:5 in
  Cluster.run_until c 151.;
  match Cluster.data_delivered_at c id with
  | Some at ->
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
    (Message.Recommend { view = 999; entries = [ (8, 3) ] });
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
    (Message.Recommend { view = 1; entries = [ (700, 3); (8, 900); (-1, 2) ] });
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
        ] );
    ]
