(* The measurement infrastructure itself: samplers must sample at the
   right cadence, aggregate per pair/node correctly, and never perturb the
   run they observe. *)

open Apor_sim
open Apor_overlay
open Apor_overlay_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let flat_cluster ~n ~seed =
  let rtt = Array.make_matrix n n 50. in
  for i = 0 to n - 1 do
    rtt.(i).(i) <- 0.
  done;
  Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~seed ()

let test_freshness_sampler_counts_ticks () =
  let c = flat_cluster ~n:4 ~seed:1 in
  let sampler = Metrics.Freshness.install ~cluster:c ~interval:30. ~t0:100. ~t1:220. () in
  Cluster.start c;
  Cluster.run_until c 300.;
  (* ticks at 100,130,160,190,220 = 5 samples per pair *)
  check_int "samples per pair" 5 (List.length (Metrics.Freshness.samples sampler ~src:0 ~dst:1))

let test_freshness_sampler_values_bounded () =
  let c = flat_cluster ~n:9 ~seed:2 in
  let sampler = Metrics.Freshness.install ~cluster:c ~interval:30. ~t0:120. ~t1:400. () in
  Cluster.start c;
  Cluster.run_until c 420.;
  List.iter
    (fun v ->
      check_bool (Printf.sprintf "freshness %.1f sane" v) true (v >= 0. && v <= 60.))
    (Metrics.Freshness.samples sampler ~src:0 ~dst:8)

let test_freshness_per_pair_and_destination () =
  let n = 4 in
  let c = flat_cluster ~n ~seed:3 in
  let sampler = Metrics.Freshness.install ~cluster:c ~interval:30. ~t0:120. ~t1:240. () in
  Cluster.start c;
  Cluster.run_until c 260.;
  let all = Metrics.Freshness.per_pair_summaries sampler in
  check_int "ordered pairs" (n * (n - 1)) (List.length all);
  let from0 = Metrics.Freshness.per_destination_summaries sampler ~src:0 in
  check_int "destinations of 0" (n - 1) (List.length from0);
  List.iter
    (fun s ->
      check_int "src is 0" 0 s.Metrics.src;
      check_bool "aggregates ordered" true
        (s.Metrics.median <= s.Metrics.p97 +. 1e-9 && s.Metrics.p97 <= s.Metrics.max +. 1e-9))
    from0

let test_failure_sampler_sees_partition () =
  let c = flat_cluster ~n:4 ~seed:4 in
  let sampler = Metrics.Failures.install ~cluster:c ~interval:60. ~t0:120. ~t1:600. () in
  Cluster.start c;
  Cluster.run_until c 200.;
  Network.fail_node (Cluster.network c) 3;
  Cluster.run_until c 620.;
  let mean = Metrics.Failures.mean_per_node sampler in
  let max = Metrics.Failures.max_per_node sampler in
  (* nodes 0-2 eventually see node 3 as a concurrent failure *)
  check_bool "node 0 mean > 0" true (mean.(0) > 0.);
  check_bool "node 0 max >= 1" true (max.(0) >= 1.);
  (* node 3 sees everyone dead *)
  check_bool "node 3 sees 3 failures" true (max.(3) >= 3.)

let test_double_failure_sampler_zero_when_calm () =
  let c = flat_cluster ~n:9 ~seed:5 in
  let sampler = Metrics.Double_failures.install ~cluster:c ~interval:60. ~t0:120. ~t1:500. () in
  Cluster.start c;
  Cluster.run_until c 520.;
  Array.iter
    (fun m -> check_bool "no double failures" true (m = 0.))
    (Metrics.Double_failures.mean_per_node sampler)

let test_samplers_do_not_disturb_routes () =
  (* identical runs with and without samplers must produce identical routes
     (samplers are read-only; determinism is per-seed) *)
  let routes c =
    List.init 9 (fun src -> List.init 9 (fun dst -> Cluster.best_hop c ~src ~dst))
  in
  let bare = flat_cluster ~n:9 ~seed:6 in
  Cluster.start bare;
  Cluster.run_until bare 400.;
  let observed = flat_cluster ~n:9 ~seed:6 in
  let (_ : Metrics.Freshness.t) =
    Metrics.Freshness.install ~cluster:observed ~interval:30. ~t0:100. ~t1:390. ()
  in
  let (_ : Metrics.Failures.t) =
    Metrics.Failures.install ~cluster:observed ~interval:60. ~t0:100. ~t1:390. ()
  in
  Cluster.start observed;
  Cluster.run_until observed 400.;
  Alcotest.(check (list (list (option int)))) "same routes" (routes bare) (routes observed)

let () =
  Alcotest.run "apor_metrics"
    [
      ( "freshness",
        [
          Alcotest.test_case "tick count" `Quick test_freshness_sampler_counts_ticks;
          Alcotest.test_case "values bounded" `Quick test_freshness_sampler_values_bounded;
          Alcotest.test_case "per pair / per destination" `Quick test_freshness_per_pair_and_destination;
        ] );
      ( "failures",
        [
          Alcotest.test_case "sees partition" `Quick test_failure_sampler_sees_partition;
          Alcotest.test_case "double failures calm" `Quick test_double_failure_sampler_zero_when_calm;
        ] );
      ( "non-interference",
        [ Alcotest.test_case "samplers don't disturb routes" `Quick test_samplers_do_not_disturb_routes ] );
    ]
