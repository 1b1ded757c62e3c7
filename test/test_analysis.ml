open Apor_overlay
open Apor_overlay_core
open Apor_analysis

let check_bool = Alcotest.(check bool)

let within ~tolerance expected actual =
  Float.abs (actual -. expected) <= tolerance *. Float.abs expected

let check_within msg ~tolerance expected actual =
  if not (within ~tolerance expected actual) then
    Alcotest.failf "%s: expected ~%.1f got %.1f" msg expected actual

(* --- The paper's quoted numbers (Sections 1 and 6.1) ----------------------- *)

let test_paper_routing_traffic_at_140 () =
  (* "the routing traffic ... for 140 nodes would be 34.8 Kbps for the
     link-state algorithm, and 15.3 Kbps using ours" *)
  check_within "RON @140" ~tolerance:0.01 34800. (Bandwidth.routing_bps Full_mesh ~n:140);
  check_within "quorum @140" ~tolerance:0.01 15300. (Bandwidth.routing_bps Quorum ~n:140)

let test_paper_capacity_at_56kbps () =
  (* "a RON with 56Kbps of probing and routing traffic ... would be able to
     support nearly twice as many nodes (from 165 to 300)" *)
  let ron = Bandwidth.max_nodes_within Full_mesh ~budget_bps:56000. in
  let quorum = Bandwidth.max_nodes_within Quorum ~budget_bps:56000. in
  check_bool (Printf.sprintf "RON %d ~ 165" ron) true (abs (ron - 165) <= 3);
  check_bool (Printf.sprintf "quorum %d ~ 300" quorum) true (abs (quorum - 300) <= 5)

let test_paper_planetlab_416 () =
  (* "an overlay running at each of the 416 PlanetLab sites would consume
     86Kbps ...; using prior systems ... 307Kbps" *)
  check_within "prior @416" ~tolerance:0.01 307000. (Bandwidth.total_bps Full_mesh ~n:416);
  check_within "ours @416" ~tolerance:0.01 86000. (Bandwidth.total_bps Quorum ~n:416)

let test_paper_probing_coefficient () =
  check_within "probing" ~tolerance:0.001 (49.1 *. 500.) (Bandwidth.probing_bps ~n:500)

let test_crossover_quorum_wins_beyond_small_n () =
  (* quorum must beat full-mesh for all but tiny overlays, and the gap must
     grow with n *)
  check_bool "wins at 50" true (Bandwidth.crossover_factor ~n:50 > 1.);
  check_bool "grows" true
    (Bandwidth.crossover_factor ~n:400 > Bandwidth.crossover_factor ~n:100)

(* --- Exact model vs paper asymptotics --------------------------------------- *)

let test_exact_model_tracks_paper_formula () =
  (* The paper's fitted expression counts 2*sqrt(n) rendezvous servers; the
     real grid has 2*(sqrt(n)-1), so the exact model sits ~1/sqrt(n) below
     it and the gap must shrink as n grows. *)
  let gap n =
    let paper = Bandwidth.routing_bps Quorum ~n in
    let exact = Bandwidth.routing_bps_exact ~config:Config.quorum_default ~n in
    check_bool (Printf.sprintf "exact below paper at n=%d" n) true (exact <= paper);
    (paper -. exact) /. paper
  in
  check_bool "within 16% at n=64" true (gap 64 < 0.16);
  check_bool "within 8% at n=256" true (gap 256 < 0.08);
  check_bool "gap shrinks" true (gap 1024 < gap 256 && gap 256 < gap 64);
  List.iter
    (fun n ->
      let paper = Bandwidth.routing_bps Full_mesh ~n in
      let exact = Bandwidth.routing_bps_exact ~config:Config.ron_default ~n in
      check_within (Printf.sprintf "ron n=%d" n) ~tolerance:0.03 paper exact)
    [ 64; 100; 144; 196; 256 ]

let test_exact_probing_tracks_paper () =
  List.iter
    (fun n ->
      check_within
        (Printf.sprintf "probing n=%d" n)
        ~tolerance:0.03
        (Bandwidth.probing_bps ~n)
        (Bandwidth.probing_bps_exact ~config:Config.quorum_default ~n))
    [ 50; 140; 400 ]

(* --- Model vs simulator ------------------------------------------------------- *)

let measured_routing_bps ~config ~n ~seed =
  let rtt = Array.make_matrix n n 60. in
  for i = 0 to n - 1 do
    rtt.(i).(i) <- 0.
  done;
  let c = Cluster.create ~config ~rtt_ms:rtt ~seed () in
  Cluster.start c;
  Cluster.run_until c 480.;
  let per_node = List.init n (fun node -> Cluster.routing_kbps c ~node ~t0:120. ~t1:480.) in
  Apor_util.Stats.mean per_node *. 1000.

let test_simulator_matches_exact_model_quorum () =
  (* The closed-form model prices full 3n-byte announcements, so pin the
     full-table baseline; delta encoding (on by default) sends less. *)
  let config = Config.full_table Config.quorum_default in
  let n = 49 in
  let expected = Bandwidth.routing_bps_exact ~config ~n in
  let measured = measured_routing_bps ~config ~n ~seed:91 in
  check_within "quorum sim vs model" ~tolerance:0.05 expected measured

let test_simulator_delta_below_model () =
  (* With delta announcements on (the default), steady-state routing
     traffic must come in well below the full-table closed form: on a
     static network every post-first delta announcement is just the
     6-byte-payload header. *)
  let n = 49 in
  let full = Bandwidth.routing_bps_exact ~config:Config.quorum_default ~n in
  let measured = measured_routing_bps ~config:Config.quorum_default ~n ~seed:91 in
  check_bool "delta strictly cheaper" true (measured < 0.8 *. full)

let test_simulator_matches_exact_model_fullmesh () =
  let n = 49 in
  let expected = Bandwidth.routing_bps_exact ~config:Config.ron_default ~n in
  let measured = measured_routing_bps ~config:Config.ron_default ~n ~seed:92 in
  check_within "ron sim vs model" ~tolerance:0.05 expected measured

(* --- Report helpers ------------------------------------------------------------ *)

let test_freshness_rows_counts () =
  let summaries =
    [
      { Metrics.src = 0; dst = 1; median = 5.; average = 6.; p97 = 20.; max = 31. };
      { Metrics.src = 0; dst = 2; median = 7.; average = 9.; p97 = 40.; max = 70. };
    ]
  in
  let rows = Report.freshness_rows summaries ~xs:[ 8.; 30.; 960. ] in
  (match rows with
  | [ r8; r30; r960 ] ->
      Alcotest.(check int) "median<=8" 2 r8.Report.median_le;
      Alcotest.(check int) "p97<=8" 0 r8.Report.p97_le;
      Alcotest.(check int) "max<=30" 0 r30.Report.max_le;
      Alcotest.(check int) "all<=960" 2 r960.Report.max_le
  | _ -> Alcotest.fail "row count");
  let empty = Report.freshness_rows [] ~xs:[ 1. ] in
  Alcotest.(check int) "empty" 0 (List.hd empty).Report.median_le

let test_node_cdf_rows () =
  let rows = Report.node_cdf_rows ~mean:[| 1.; 2.; 2. |] ~max:[| 3.; 5.; 2. |] () in
  (* xs = sorted uniq of {1,2,3,5,2} = [1;2;3;5] *)
  (match rows with
  | (x1, m1, x1m) :: _ ->
      Alcotest.(check (float 0.)) "first x" 1. x1;
      Alcotest.(check int) "mean<=1" 1 m1;
      Alcotest.(check int) "max<=1" 0 x1m
  | [] -> Alcotest.fail "empty");
  Alcotest.(check int) "4 rows" 4 (List.length rows)

let () =
  Alcotest.run "apor_analysis"
    [
      ( "paper-numbers",
        [
          Alcotest.test_case "routing traffic at 140" `Quick test_paper_routing_traffic_at_140;
          Alcotest.test_case "capacity at 56 kbps" `Quick test_paper_capacity_at_56kbps;
          Alcotest.test_case "PlanetLab 416 sites" `Quick test_paper_planetlab_416;
          Alcotest.test_case "probing coefficient" `Quick test_paper_probing_coefficient;
          Alcotest.test_case "crossover factor" `Quick test_crossover_quorum_wins_beyond_small_n;
        ] );
      ( "exact-model",
        [
          Alcotest.test_case "tracks paper formula" `Quick test_exact_model_tracks_paper_formula;
          Alcotest.test_case "probing tracks paper" `Quick test_exact_probing_tracks_paper;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "quorum measured = model" `Slow test_simulator_matches_exact_model_quorum;
          Alcotest.test_case "fullmesh measured = model" `Slow test_simulator_matches_exact_model_fullmesh;
          Alcotest.test_case "delta below model" `Slow test_simulator_delta_below_model;
        ] );
      ( "report",
        [
          Alcotest.test_case "freshness rows" `Quick test_freshness_rows_counts;
          Alcotest.test_case "node cdf rows" `Quick test_node_cdf_rows;
        ] );
    ]
