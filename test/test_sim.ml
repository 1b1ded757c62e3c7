open Apor_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let two_node_rtt = [| [| 0.; 100. |]; [| 100.; 0. |] |]

(* --- Network ----------------------------------------------------------------- *)

let test_network_delivery_delay () =
  let net = Network.create ~rtt_ms:two_node_rtt ~seed:1 () in
  Alcotest.(check (option (float 1e-9))) "one way = rtt/2 in seconds" (Some 0.05)
    (Network.sample_delivery net ~src:0 ~dst:1)

let test_network_down_link_drops () =
  let net = Network.create ~rtt_ms:two_node_rtt ~seed:1 () in
  Network.set_link_up net 0 1 false;
  check_bool "down" true (Network.sample_delivery net ~src:0 ~dst:1 = None);
  check_bool "symmetric" true (Network.sample_delivery net ~src:1 ~dst:0 = None);
  Network.set_link_up net 1 0 true;
  check_bool "restored" true (Network.sample_delivery net ~src:0 ~dst:1 <> None)

let test_network_loss_rate () =
  let loss = [| [| 0.; 0.3 |]; [| 0.3; 0. |] |] in
  let net = Network.create ~rtt_ms:two_node_rtt ~loss ~seed:7 () in
  let dropped = ref 0 in
  let trials = 10000 in
  for _ = 1 to trials do
    if Network.sample_delivery net ~src:0 ~dst:1 = None then incr dropped
  done;
  let rate = float_of_int !dropped /. float_of_int trials in
  check_bool (Printf.sprintf "rate %.3f ~ 0.3" rate) true (Float.abs (rate -. 0.3) < 0.03)

let test_network_fail_node () =
  let rtt = Array.make_matrix 4 4 10. in
  for i = 0 to 3 do rtt.(i).(i) <- 0. done;
  let net = Network.create ~rtt_ms:rtt ~seed:1 () in
  Network.fail_node net 2;
  check_int "three links down" 3 (Network.down_links net 2);
  check_int "one down at 0" 1 (Network.down_links net 0);
  Network.recover_node net 2;
  check_int "recovered" 0 (Network.down_links net 2)

(* Boundary semantics the chaos injector leans on. *)

let test_network_total_loss_always_drops () =
  let net = Network.create ~rtt_ms:two_node_rtt ~seed:5 () in
  Network.set_loss net 0 1 1.0;
  for _ = 1 to 500 do
    check_bool "p=1 drops every packet" true
      (Network.sample_delivery net ~src:0 ~dst:1 = None)
  done;
  Network.set_loss net 0 1 0.;
  check_bool "p=0 delivers again" true (Network.sample_delivery net ~src:0 ~dst:1 <> None)

let test_network_fail_idempotent () =
  let rtt = Array.make_matrix 4 4 10. in
  for i = 0 to 3 do rtt.(i).(i) <- 0. done;
  let net = Network.create ~rtt_ms:rtt ~seed:1 () in
  Network.fail_node net 2;
  Network.fail_node net 2;
  check_int "failing twice still counts 3 down links" 3 (Network.down_links net 2);
  Network.recover_node net 2;
  check_int "one recover undoes both" 0 (Network.down_links net 2)

let test_network_recover_preserves_loss () =
  let rtt = Array.make_matrix 3 3 10. in
  for i = 0 to 2 do rtt.(i).(i) <- 0. done;
  let net = Network.create ~rtt_ms:rtt ~seed:1 () in
  Network.set_loss net 2 0 0.4;
  Network.set_rtt_ms net 2 1 77.;
  Network.fail_node net 2;
  Network.recover_node net 2;
  check_bool "links back up" true (Network.link_up net 2 0 && Network.link_up net 2 1);
  check_float "custom loss survives fail/recover" 0.4 (Network.loss net 0 2);
  check_float "custom rtt survives fail/recover" 77. (Network.rtt_ms net 1 2)

let test_network_mutation () =
  let net = Network.create ~rtt_ms:two_node_rtt ~seed:1 () in
  Network.set_rtt_ms net 0 1 30.;
  check_float "rtt updated both ways" 30. (Network.rtt_ms net 1 0);
  Network.set_loss net 0 1 0.5;
  check_float "loss updated" 0.5 (Network.loss net 1 0)

let test_network_rejects_malformed () =
  Alcotest.check_raises "not square" (Invalid_argument "Network.create: matrix not square")
    (fun () -> ignore (Network.create ~rtt_ms:[| [| 0. |]; [| 0.; 0. |] |] ~seed:1 ()));
  Alcotest.check_raises "bad loss" (Invalid_argument "Network.create: loss outside [0,1]")
    (fun () ->
      ignore
        (Network.create ~rtt_ms:two_node_rtt ~loss:[| [| 0.; 2. |]; [| 2.; 0. |] |] ~seed:1 ()))

(* --- Engine ------------------------------------------------------------------- *)

(* Every engine test runs twice: on a bare engine, and on one with a tap
   whose hooks do nothing, which must not change what the engine does.  The
   tapped run keeps the group name "engine(calendar)" it had when the engine
   also had a calendar-queue backend, so results compare across versions. *)

let null_tap =
  let hook ~cls:_ ~src:_ ~dst:_ ~bytes:_ = () in
  { Engine.on_send = hook; on_deliver = hook; on_drop = hook }

let engine_of ~tapped net =
  let e = Engine.create ~network:net () in
  if tapped then Engine.set_tap e (Some null_tap);
  e

let make_engine ~tapped () =
  engine_of ~tapped (Network.create ~rtt_ms:two_node_rtt ~seed:3 ())

let test_engine_schedule_order tapped () =
  let e = make_engine ~tapped () in
  let log = ref [] in
  Engine.schedule e ~delay:2. (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1. (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:2. (fun () -> log := "c" :: !log);
  Engine.run_until e 10.;
  Alcotest.(check (list string)) "order (ties FIFO)" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "clock at horizon" 10. (Engine.now e)

let test_engine_send_delivers_with_latency tapped () =
  let e = make_engine ~tapped () in
  let arrival = ref nan in
  Engine.set_handler e (fun ~dst ~src msg ->
      check_int "dst" 1 dst;
      check_int "src" 0 src;
      check_int "payload" 42 msg;
      arrival := Engine.now e);
  Engine.schedule e ~delay:1. (fun () ->
      Engine.send e ~cls:Traffic.Probe ~src:0 ~dst:1 ~bytes:46 42);
  Engine.run_until e 5.;
  check_float "arrival = 1 + rtt/2" 1.05 !arrival

let test_engine_send_accounts_traffic tapped () =
  let e = make_engine ~tapped () in
  Engine.set_handler e (fun ~dst:_ ~src:_ _ -> ());
  Engine.send e ~cls:Traffic.Routing ~src:0 ~dst:1 ~bytes:100 0;
  Engine.run_until e 1.;
  let traffic = Engine.traffic e in
  check_int "out at 0" 100 (Traffic.bytes_in_range traffic ~cls:Traffic.Routing ~node:0 ~t0:0. ~t1:1.);
  check_int "in at 1" 100 (Traffic.bytes_in_range traffic ~cls:Traffic.Routing ~node:1 ~t0:0. ~t1:1.)

let test_engine_dropped_message_charges_sender_only tapped () =
  let net = Network.create ~rtt_ms:two_node_rtt ~seed:3 () in
  Network.set_link_up net 0 1 false;
  let e = engine_of ~tapped net in
  Engine.set_handler e (fun ~dst:_ ~src:_ _ -> Alcotest.fail "should not deliver");
  Engine.send e ~cls:Traffic.Routing ~src:0 ~dst:1 ~bytes:100 0;
  Engine.run_until e 1.;
  let traffic = Engine.traffic e in
  check_int "out charged" 100 (Traffic.bytes_in_range traffic ~cls:Traffic.Routing ~node:0 ~t0:0. ~t1:1.);
  check_int "in not charged" 0 (Traffic.bytes_in_range traffic ~cls:Traffic.Routing ~node:1 ~t0:0. ~t1:1.)

let test_engine_no_handler_fails tapped () =
  let e = make_engine ~tapped () in
  Engine.send e ~cls:Traffic.Probe ~src:0 ~dst:1 ~bytes:1 0;
  Alcotest.check_raises "no handler" (Failure "Engine: message delivered with no handler installed")
    (fun () -> Engine.run_until e 1.)

let test_engine_step_and_pending tapped () =
  let e = make_engine ~tapped () in
  Engine.schedule e ~delay:1. ignore;
  Engine.schedule e ~delay:2. ignore;
  check_int "pending" 2 (Engine.pending e);
  check_bool "step" true (Engine.step e);
  check_int "pending after" 1 (Engine.pending e);
  check_bool "step" true (Engine.step e);
  check_bool "exhausted" false (Engine.step e)

let test_engine_determinism tapped () =
  let run () =
    let net = Network.create ~rtt_ms:two_node_rtt ~loss:[| [| 0.; 0.5 |]; [| 0.5; 0. |] |] ~seed:9 () in
    let e = engine_of ~tapped net in
    let received = ref 0 in
    Engine.set_handler e (fun ~dst:_ ~src:_ _ -> incr received);
    for i = 1 to 100 do
      Engine.schedule e ~delay:(float_of_int i) (fun () ->
          Engine.send e ~cls:Traffic.Probe ~src:0 ~dst:1 ~bytes:46 i)
    done;
    Engine.run_until e 200.;
    !received
  in
  check_int "same seed same outcome" (run ()) (run ())

let test_engine_negative_delay_rejected tapped () =
  let e = make_engine ~tapped () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: bad delay") (fun () ->
      Engine.schedule e ~delay:(-1.) ignore)


let test_engine_schedule_at_past_clamps tapped () =
  let e = make_engine ~tapped () in
  Engine.run_until e 10.;
  let fired_at = ref nan in
  Engine.schedule_at e ~time:5. (fun () -> fired_at := Engine.now e);
  Engine.run_until e 20.;
  check_float "clamped to now" 10. !fired_at

let test_engine_run_until_no_events tapped () =
  let e = make_engine ~tapped () in
  Engine.run_until e 42.;
  check_float "clock advances to horizon" 42. (Engine.now e)

let test_engine_nested_scheduling tapped () =
  let e = make_engine ~tapped () in
  let log = ref [] in
  Engine.schedule e ~delay:1. (fun () ->
      log := "outer" :: !log;
      Engine.schedule e ~delay:1. (fun () -> log := "inner" :: !log));
  Engine.run_until e 3.;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_engine_stats tapped () =
  let net =
    Network.create ~rtt_ms:two_node_rtt ~loss:[| [| 0.; 0.5 |]; [| 0.5; 0. |] |] ~seed:9 ()
  in
  let e = engine_of ~tapped net in
  Engine.set_handler e (fun ~dst:_ ~src:_ _ -> ());
  for i = 1 to 50 do
    Engine.schedule e ~delay:(float_of_int i) (fun () ->
        Engine.send e ~cls:Traffic.Probe ~src:0 ~dst:1 ~bytes:46 i)
  done;
  Engine.run_until e 200.;
  let s = Engine.stats e in
  check_int "sends" 50 s.Engine.sends;
  check_int "sends = delivers + drops" 50 (s.Engine.delivers + s.Engine.drops);
  check_bool "lossy link dropped some" true (s.Engine.drops > 0);
  check_bool "and delivered some" true (s.Engine.delivers > 0);
  (* one event per timer + one per delivered message *)
  check_int "events processed" (50 + s.Engine.delivers) s.Engine.events;
  check_bool "peak pending sane" true
    (s.Engine.max_pending >= 1 && s.Engine.max_pending <= 51);
  check_int "queue drained" 0 (Engine.pending e)

(* --- Traffic ------------------------------------------------------------------ *)

let test_traffic_kbps () =
  let t = Traffic.create ~n:2 in
  (* 1000 bytes over 10 seconds = 800 bits/s = 0.8 kbps *)
  Traffic.record t Traffic.Routing ~node:0 ~bytes:1000 ~now:3.2;
  check_float "kbps" 0.8 (Traffic.kbps t ~classes:[ Traffic.Routing ] ~node:0 ~t0:0. ~t1:10.)

let test_traffic_classes_separate () =
  let t = Traffic.create ~n:1 in
  Traffic.record t Traffic.Probe ~node:0 ~bytes:10 ~now:0.;
  Traffic.record t Traffic.Routing ~node:0 ~bytes:20 ~now:0.;
  check_int "probe" 10 (Traffic.bytes_in_range t ~cls:Traffic.Probe ~node:0 ~t0:0. ~t1:1.);
  check_int "routing" 20 (Traffic.bytes_in_range t ~cls:Traffic.Routing ~node:0 ~t0:0. ~t1:1.);
  check_float "summed" 0.24
    (Traffic.kbps t ~classes:Traffic.all_classes ~node:0 ~t0:0. ~t1:1.)

let test_traffic_max_window () =
  let t = Traffic.create ~n:1 in
  (* quiet first minute, burst in second minute *)
  Traffic.record t Traffic.Routing ~node:0 ~bytes:100 ~now:30.;
  Traffic.record t Traffic.Routing ~node:0 ~bytes:60000 ~now:90.;
  let max_w =
    Traffic.max_window_kbps t ~classes:[ Traffic.Routing ] ~node:0 ~window:60. ~t0:0. ~t1:120.
  in
  check_float "max window sees burst" 8.0 max_w

let test_traffic_growth () =
  let t = Traffic.create ~n:1 in
  Traffic.record t Traffic.Probe ~node:0 ~bytes:1 ~now:10000.;
  check_int "late bucket" 1 (Traffic.bytes_in_range t ~cls:Traffic.Probe ~node:0 ~t0:9999. ~t1:10001.)

let test_traffic_bad_args () =
  let t = Traffic.create ~n:1 in
  Alcotest.check_raises "negative time" (Invalid_argument "Traffic.record: negative time")
    (fun () -> Traffic.record t Traffic.Probe ~node:0 ~bytes:1 ~now:(-1.));
  Alcotest.check_raises "bad node" (Invalid_argument "Traffic.record: node out of range")
    (fun () -> Traffic.record t Traffic.Probe ~node:5 ~bytes:1 ~now:0.)

(* [bytes_in_range] is half-open [t0, t1) at one-second granularity: the
   steady-state windows in the benches rely on [t0, t1) + [t1, t2)
   partitioning the stream with no double counting. *)
let test_traffic_range_half_open () =
  let t = Traffic.create ~n:1 in
  Traffic.record t Traffic.Routing ~node:0 ~bytes:10 ~now:5.0;
  Traffic.record t Traffic.Routing ~node:0 ~bytes:20 ~now:5.9;
  Traffic.record t Traffic.Routing ~node:0 ~bytes:40 ~now:6.0;
  let range t0 t1 = Traffic.bytes_in_range t ~cls:Traffic.Routing ~node:0 ~t0 ~t1 in
  check_int "empty window t0 = t1" 0 (range 5. 5.);
  check_int "bucket 5 only" 30 (range 5. 6.);
  check_int "upper bound excluded" 30 (range 0. 6.);
  check_int "lower bound included" 40 (range 6. 7.);
  check_int "adjacent windows partition" (range 0. 6. + range 6. 10.) (range 0. 10.)

let test_traffic_range_fractional_bounds () =
  let t = Traffic.create ~n:1 in
  Traffic.record t Traffic.Routing ~node:0 ~bytes:7 ~now:3.4;
  let range t0 t1 = Traffic.bytes_in_range t ~cls:Traffic.Routing ~node:0 ~t0 ~t1 in
  (* bounds snap down to whole-second buckets *)
  check_int "3.9 still sees bucket 3? no - floor 3.9 = 3" 0 (range 3.0 3.9);
  check_int "fractional lower bound floors into the bucket" 7 (range 3.9 4.0);
  check_int "covers" 7 (range 3.0 4.1);
  check_int "same fractional second" 0 (range 3.2 3.7);
  check_int "negative t0 clamps" 7 (range (-5.) 4.)

let engine_suite tapped =
  [
    Alcotest.test_case "schedule order" `Quick (test_engine_schedule_order tapped);
    Alcotest.test_case "send with latency" `Quick (test_engine_send_delivers_with_latency tapped);
    Alcotest.test_case "traffic accounting" `Quick (test_engine_send_accounts_traffic tapped);
    Alcotest.test_case "drop charges sender only" `Quick
      (test_engine_dropped_message_charges_sender_only tapped);
    Alcotest.test_case "no handler fails" `Quick (test_engine_no_handler_fails tapped);
    Alcotest.test_case "step and pending" `Quick (test_engine_step_and_pending tapped);
    Alcotest.test_case "deterministic" `Quick (test_engine_determinism tapped);
    Alcotest.test_case "negative delay rejected" `Quick (test_engine_negative_delay_rejected tapped);
    Alcotest.test_case "schedule_at clamps past" `Quick (test_engine_schedule_at_past_clamps tapped);
    Alcotest.test_case "run_until without events" `Quick (test_engine_run_until_no_events tapped);
    Alcotest.test_case "nested scheduling" `Quick (test_engine_nested_scheduling tapped);
    Alcotest.test_case "profiling counters" `Quick (test_engine_stats tapped);
  ]

let () =
  Alcotest.run "apor_sim"
    [
      ( "network",
        [
          Alcotest.test_case "delivery delay" `Quick test_network_delivery_delay;
          Alcotest.test_case "down link drops" `Quick test_network_down_link_drops;
          Alcotest.test_case "loss rate" `Quick test_network_loss_rate;
          Alcotest.test_case "fail/recover node" `Quick test_network_fail_node;
          Alcotest.test_case "total loss always drops" `Quick
            test_network_total_loss_always_drops;
          Alcotest.test_case "fail idempotent" `Quick test_network_fail_idempotent;
          Alcotest.test_case "recover preserves loss/rtt" `Quick
            test_network_recover_preserves_loss;
          Alcotest.test_case "mutation symmetric" `Quick test_network_mutation;
          Alcotest.test_case "rejects malformed" `Quick test_network_rejects_malformed;
        ] );
      ("engine(binary-heap)", engine_suite false);
      ("engine(calendar)", engine_suite true);
      ( "traffic",
        [
          Alcotest.test_case "kbps" `Quick test_traffic_kbps;
          Alcotest.test_case "classes separate" `Quick test_traffic_classes_separate;
          Alcotest.test_case "max window" `Quick test_traffic_max_window;
          Alcotest.test_case "bucket growth" `Quick test_traffic_growth;
          Alcotest.test_case "bad args" `Quick test_traffic_bad_args;
          Alcotest.test_case "range is half-open" `Quick test_traffic_range_half_open;
          Alcotest.test_case "range fractional bounds" `Quick test_traffic_range_fractional_bounds;
        ] );
    ]
