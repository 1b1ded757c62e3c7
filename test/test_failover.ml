(* The failure-recovery case studies of Section 4.1 (Figures 4-7).

   The 9-node grid is
       0 1 2
       3 4 5
       6 7 8
   Src = 0 and Dst = 8 share exactly two default rendezvous servers: 2
   (0's row x 8's column) and 6 (8's row x 0's column).  C denotes the
   best one-hop intermediary between 0 and 8.

   Paper bounds (r = routing interval, p = probing interval):
     scenario 1 (direct + best-hop failure)            <= p + 2r
     scenario 2 (both proximal rendezvous + direct)    <= p + 2r
     scenario 3 (proximal + remote rendezvous + direct)<= p + 3r
   We allow one extra routing interval of slack for phase jitter. *)

open Apor_overlay
open Apor_overlay_core
open Apor_topology

let check_bool = Alcotest.(check bool)

let n = 9
let src = 0
let dst = 8
let best_hop_node = 4
let second_best = 5

(* Latencies: direct 0-8 expensive (800), 0-4-8 cheapest (100+100), 0-5-8
   next (120+120), everything else 300 — whole ms so quantization is exact. *)
let rtt () =
  let m = Array.make_matrix n n 300. in
  for i = 0 to n - 1 do m.(i).(i) <- 0. done;
  let set i j v = m.(i).(j) <- v; m.(j).(i) <- v in
  set src dst 800.;
  set src best_hop_node 100.;
  set best_hop_node dst 100.;
  set src second_best 120.;
  set second_best dst 120.;
  m

let make_cluster ?(seed = 5) () =
  Cluster.create ~config:Config.quorum_default ~rtt_ms:(rtt ()) ~seed ()

let p = Config.quorum_default.Config.probe_interval_s
let r = Config.quorum_default.Config.routing_interval_s

(* Poll every second from [start] until [deadline] for [pred]; return the
   first time it holds. *)
let first_time_when c ~start ~deadline pred =
  let rec go t =
    if t > deadline then None
    else begin
      Cluster.run_until c t;
      if pred () then Some t else go (t +. 1.)
    end
  in
  go start

let settle = 200. (* past warmup; routes optimal and stable *)

let test_initial_route_is_best_hop () =
  let c = make_cluster () in
  Cluster.start c;
  Cluster.run_until c settle;
  Alcotest.(check (option int)) "best hop" (Some best_hop_node) (Cluster.best_hop c ~src ~dst)

(* Scenario 1 (Figure 4a): direct link and best-hop links fail. *)
let test_scenario1_direct_and_best_hop () =
  let c = make_cluster () in
  Scenario.install ~engine:(Cluster.engine c)
    [
      (settle, Scenario.Link_down (src, dst));
      (settle, Scenario.Link_down (src, best_hop_node));
    ];
  Cluster.start c;
  let recovered =
    first_time_when c ~start:settle ~deadline:(settle +. p +. (3. *. r)) (fun () ->
        Cluster.best_hop c ~src ~dst = Some second_best)
  in
  match recovered with
  | None -> Alcotest.fail "never recovered to second-best hop"
  | Some t ->
      check_bool
        (Printf.sprintf "recovered in %.0fs <= p + 3r" (t -. settle))
        true
        (t -. settle <= p +. (3. *. r))

(* Scenario 2 (Figure 4b): both proximal rendezvous links and the direct
   link fail; Src must fail over to another of Dst's rendezvous nodes. *)
let test_scenario2_proximal_rendezvous () =
  let c = make_cluster () in
  Scenario.install ~engine:(Cluster.engine c)
    [
      (settle, Scenario.Link_down (src, 2));
      (settle, Scenario.Link_down (src, 6));
      (settle, Scenario.Link_down (src, dst));
    ];
  Cluster.start c;
  (* route must remain available (through best hop) the whole time, and a
     failover rendezvous must engage *)
  let engaged =
    first_time_when c ~start:settle ~deadline:(settle +. p +. (4. *. r)) (fun () ->
        match Node.quorum_router (Cluster.node c src) with
        | Some router -> Router.active_failover_count router > 0
        | None -> false)
  in
  (match engaged with
  | None -> Alcotest.fail "failover never engaged"
  | Some t ->
      check_bool
        (Printf.sprintf "failover engaged in %.0fs" (t -. settle))
        true
        (t -. settle <= p +. (3. *. r)));
  (* and recommendations for dst keep flowing afterwards *)
  Cluster.run_until c (settle +. 200.);
  (match Cluster.freshness c ~src ~dst with
  | None -> Alcotest.fail "no freshness"
  | Some age ->
      check_bool (Printf.sprintf "recs flowing (age %.0fs)" age) true (age <= 2. *. r));
  (* route still optimal given the direct link is dead: 0-4-8 *)
  Alcotest.(check (option int)) "route survives" (Some best_hop_node)
    (Cluster.best_hop c ~src ~dst)

(* Scenario 3 (Figure 4c): proximal failure to one rendezvous, remote
   failure (rendezvous-dst link) on the other, direct failure. *)
let test_scenario3_proximal_and_remote () =
  let c = make_cluster () in
  Scenario.install ~engine:(Cluster.engine c)
    [
      (settle, Scenario.Link_down (src, 2));   (* proximal: src cannot reach 2 *)
      (settle, Scenario.Link_down (6, dst));   (* remote: 6 cannot hear dst *)
      (settle, Scenario.Link_down (src, dst)); (* direct *)
    ];
  Cluster.start c;
  let engaged =
    first_time_when c ~start:settle ~deadline:(settle +. p +. (5. *. r)) (fun () ->
        match Node.quorum_router (Cluster.node c src) with
        | Some router -> Router.active_failover_count router > 0
        | None -> false)
  in
  (match engaged with
  | None -> Alcotest.fail "failover never engaged"
  | Some t ->
      (* remote detection needs an extra routing interval (paper: <= 3r) *)
      check_bool
        (Printf.sprintf "failover engaged in %.0fs <= p + 4r" (t -. settle))
        true
        (t -. settle <= p +. (4. *. r)));
  Cluster.run_until c (settle +. 250.);
  Alcotest.(check (option int)) "route survives" (Some best_hop_node)
    (Cluster.best_hop c ~src ~dst)

(* Redundancy: a single rendezvous failure must not disturb routing at all. *)
let test_single_rendezvous_failure_harmless () =
  let c = make_cluster () in
  Scenario.install ~engine:(Cluster.engine c) [ (settle, Scenario.Node_down 2) ];
  Cluster.start c;
  Cluster.run_until c (settle +. 120.);
  Alcotest.(check (option int)) "route unchanged" (Some best_hop_node)
    (Cluster.best_hop c ~src ~dst);
  (match Node.quorum_router (Cluster.node c src) with
  | Some router ->
      (* the dead node itself may register as a double failure (its own
         rendezvous can no longer reach it) but no other pair may *)
      check_bool "at most the dead node double-fails" true
        (Router.double_rendezvous_failure_count router ~now:(Cluster.now c) <= 1)
  | None -> Alcotest.fail "expected quorum router");
  match Cluster.freshness c ~src ~dst with
  | Some age -> check_bool "fresh recs" true (age <= 2. *. r)
  | None -> Alcotest.fail "no freshness"

(* Dead destination: failover must stop after the liveness check fails. *)
let test_dead_destination_detected () =
  let c = make_cluster () in
  Scenario.install ~engine:(Cluster.engine c) [ (settle, Scenario.Node_down dst) ];
  Cluster.start c;
  Cluster.run_until c (settle +. 400.);
  match Node.quorum_router (Cluster.node c src) with
  | Some router ->
      check_bool "suspects dst dead" true (Router.suspects_dead router ~dst_port:dst);
      Alcotest.(check int) "no lingering failover for dead dst" 0
        (Router.active_failover_count router)
  | None -> Alcotest.fail "expected quorum router"

(* Dead destination resurrects: suspicion must clear and routes return. *)
let test_dead_destination_recovers () =
  let c = make_cluster () in
  Scenario.install ~engine:(Cluster.engine c)
    [ (settle, Scenario.Node_down dst); (settle +. 400., Scenario.Node_up dst) ];
  Cluster.start c;
  Cluster.run_until c (settle +. 700.);
  (match Node.quorum_router (Cluster.node c src) with
  | Some router ->
      check_bool "no longer suspected" false (Router.suspects_dead router ~dst_port:dst)
  | None -> Alcotest.fail "expected quorum router");
  Alcotest.(check (option int)) "optimal route restored" (Some best_hop_node)
    (Cluster.best_hop c ~src ~dst)

(* Section 4.2: with both rendezvous dead and no failover engaged yet, the
   node can still find a working one-hop through its neighbours' tables. *)
let test_redundant_tables_give_fallback_route () =
  let c = make_cluster () in
  (* cut direct and both rendezvous links simultaneously; query the route
     shortly after (before failover has a chance to complete) *)
  Scenario.install ~engine:(Cluster.engine c)
    [
      (settle, Scenario.Link_down (src, dst));
      (settle, Scenario.Link_down (src, 2));
      (settle, Scenario.Link_down (src, 6));
    ];
  Cluster.start c;
  (* 40s: direct declared dead; stored recommendation (<=45s old) or
     neighbour tables must still provide a live route *)
  Cluster.run_until c (settle +. 40.);
  match Cluster.best_hop c ~src ~dst with
  | None -> Alcotest.fail "no fallback route"
  | Some hop -> check_bool "not the dead direct" true (hop <> dst)

let test_failover_spreads_load () =
  (* With many sources failing over around the same destination, the chosen
     failover servers should not all collapse onto one node. *)
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  let chosen =
    List.filter_map
      (fun seed ->
        let c = make_cluster ~seed () in
        Scenario.install ~engine:(Cluster.engine c)
          [
            (settle, Scenario.Link_down (src, 2));
            (settle, Scenario.Link_down (src, 6));
            (settle, Scenario.Link_down (src, dst));
          ];
        Cluster.start c;
        Cluster.run_until c (settle +. 150.);
        match Node.quorum_router (Cluster.node c src) with
        | Some router -> (
            match Router.rendezvous_server_ports router with
            | ports ->
                (* failover servers are those outside 0's default {1,2,3,6} *)
                List.find_opt (fun p -> not (List.mem p [ 1; 2; 3; 6 ])) ports)
        | None -> None)
      seeds
  in
  check_bool "failovers happened" true (List.length chosen >= 5);
  let distinct = List.sort_uniq Int.compare chosen in
  check_bool
    (Printf.sprintf "%d distinct failover choices" (List.length distinct))
    true
    (List.length distinct >= 2)


(* Footnote 8: with link-state relaying enabled, losing the direct links to
   both rendezvous servers does not interrupt the exchange at all — the
   announcements and recommendations ride temporary one-hops, and no
   failover is needed. *)
let test_relay_keeps_rendezvous_alive () =
  let config = { Config.quorum_default with Config.relay_link_state = true } in
  let c = Cluster.create ~config ~rtt_ms:(rtt ()) ~seed:6 () in
  Scenario.install ~engine:(Cluster.engine c)
    [
      (settle, Scenario.Link_down (src, 2));
      (settle, Scenario.Link_down (src, 6));
      (settle, Scenario.Link_down (src, dst));
    ];
  Cluster.start c;
  Cluster.run_until c (settle +. 150.);
  (match Node.quorum_router (Cluster.node c src) with
  | Some router ->
      Alcotest.(check int) "no failover needed" 0 (Router.active_failover_count router)
  | None -> Alcotest.fail "expected quorum router");
  (match Cluster.freshness c ~src ~dst with
  | Some age -> check_bool (Printf.sprintf "recs flow via relay (age %.0f)" age) true (age <= 2. *. r)
  | None -> Alcotest.fail "no freshness");
  Alcotest.(check (option int)) "route survives" (Some best_hop_node)
    (Cluster.best_hop c ~src ~dst)

let test_relay_message_sizes () =
  let inner = Message.Probe { seq = 1 } in
  Alcotest.(check int) "relay adds one header" (46 + 46)
    (Message.size_bytes (Message.Relay { origin = 0; target = 1; inner }));
  check_bool "class follows inner" true
    (Message.cls (Message.Relay { origin = 0; target = 1; inner }) = Apor_sim.Traffic.Probe)

let () =
  Alcotest.run "apor_failover"
    [
      ( "scenarios",
        [
          Alcotest.test_case "initial route optimal" `Slow test_initial_route_is_best_hop;
          Alcotest.test_case "scenario 1: direct + best hop" `Slow test_scenario1_direct_and_best_hop;
          Alcotest.test_case "scenario 2: proximal rendezvous" `Slow test_scenario2_proximal_rendezvous;
          Alcotest.test_case "scenario 3: proximal + remote" `Slow test_scenario3_proximal_and_remote;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "single rendezvous failure harmless" `Slow test_single_rendezvous_failure_harmless;
          Alcotest.test_case "dead destination detected" `Slow test_dead_destination_detected;
          Alcotest.test_case "dead destination recovers" `Slow test_dead_destination_recovers;
          Alcotest.test_case "redundant tables fallback" `Slow test_redundant_tables_give_fallback_route;
          Alcotest.test_case "failover spreads load" `Slow test_failover_spreads_load;
        ] );
      ( "relay (footnote 8)",
        [
          Alcotest.test_case "rendezvous survive link cuts" `Slow test_relay_keeps_rendezvous_alive;
          Alcotest.test_case "message sizes" `Quick test_relay_message_sizes;
        ] );
    ]
