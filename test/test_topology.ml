open Apor_util
open Apor_sim
open Apor_topology

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Geo ------------------------------------------------------------------- *)

let test_geo_distance_known_points () =
  (* equator quarter-circle: ~10,007 km *)
  let a = { Geo.latitude = 0.; longitude = 0.; region = "x" } in
  let b = { Geo.latitude = 0.; longitude = 90.; region = "x" } in
  let d = Geo.distance_km a b in
  check_bool (Printf.sprintf "%.0f km" d) true (Float.abs (d -. 10007.) < 20.)

let test_geo_distance_zero () =
  let a = { Geo.latitude = 48.; longitude = 2.; region = "x" } in
  check_float "self distance" 0. (Geo.distance_km a a)

let test_geo_rtt_floor () =
  let a = { Geo.latitude = 0.; longitude = 0.; region = "x" } in
  let b = { Geo.latitude = 0.; longitude = 0.001; region = "x" } in
  (* nearly colocated: RTT dominated by 2 * 4ms access *)
  let rtt = Geo.base_rtt_ms a b in
  check_bool "access floor" true (rtt >= 8. && rtt < 9.)

let test_geo_place_deterministic () =
  let place () =
    Geo.place ~rng:(Rng.make ~seed:5) ~regions:Geo.planetlab_regions ~n:20
  in
  let p1 = place () and p2 = place () in
  Array.iteri
    (fun i (a : Geo.placement) ->
      check_float "lat" a.latitude p2.(i).Geo.latitude;
      check_float "lon" a.longitude p2.(i).Geo.longitude)
    p1

let test_geo_matrix_symmetric_zero_diag () =
  let placements = Geo.place ~rng:(Rng.make ~seed:1) ~regions:Geo.planetlab_regions ~n:15 in
  let m = Geo.rtt_matrix placements in
  for i = 0 to 14 do
    check_float "diag" 0. m.(i).(i);
    for j = 0 to 14 do
      check_float "sym" m.(i).(j) m.(j).(i)
    done
  done

let test_geo_rejects_bad_args () =
  Alcotest.check_raises "n" (Invalid_argument "Geo.place: n must be positive") (fun () ->
      ignore (Geo.place ~rng:(Rng.make ~seed:1) ~regions:Geo.planetlab_regions ~n:0));
  Alcotest.check_raises "regions" (Invalid_argument "Geo.place: no regions") (fun () ->
      ignore (Geo.place ~rng:(Rng.make ~seed:1) ~regions:[] ~n:3))

(* --- Internet ----------------------------------------------------------------- *)

let world = Internet.generate ~seed:42 ~n:120 ()

let test_internet_shape () =
  check_int "size" 120 (Internet.size world);
  let m = world.Internet.rtt_ms in
  for i = 0 to 119 do
    check_float "diag" 0. m.(i).(i);
    for j = i + 1 to 119 do
      check_float "sym" m.(i).(j) m.(j).(i);
      check_bool "positive" true (m.(i).(j) > 0.)
    done
  done

let test_internet_inflation_creates_tivs () =
  (* Triangle-inequality violations must exist: some pair (i,j) has a
     cheaper two-leg path through some h. *)
  let m = world.Internet.rtt_ms in
  let n = Internet.size world in
  let found = ref false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      for h = 0 to n - 1 do
        if h <> i && h <> j && m.(i).(h) +. m.(h).(j) < m.(i).(j) then found := true
      done
    done
  done;
  check_bool "TIVs exist" true !found

let test_internet_bad_nodes_marked () =
  let bad = Array.to_list world.Internet.bad_nodes |> List.filter Fun.id |> List.length in
  (* 5% of 120 = ~6; allow wide slack *)
  check_bool (Printf.sprintf "%d bad nodes" bad) true (bad >= 1 && bad < 30)

let test_internet_deterministic () =
  let w2 = Internet.generate ~seed:42 ~n:120 () in
  check_float "same matrix" world.Internet.rtt_ms.(3).(77) w2.Internet.rtt_ms.(3).(77);
  let w3 = Internet.generate ~seed:43 ~n:120 () in
  check_bool "different seed differs" true
    (world.Internet.rtt_ms.(3).(77) <> w3.Internet.rtt_ms.(3).(77))

let test_internet_loss_bounds () =
  Array.iter
    (Array.iter (fun l -> check_bool "loss in [0,0.9]" true (l >= 0. && l <= 0.9)))
    world.Internet.loss

let test_internet_usable_as_network () =
  let net = Network.create ~rtt_ms:world.Internet.rtt_ms ~loss:world.Internet.loss ~seed:1 () in
  check_int "network size" 120 (Network.size net)

(* --- Failures ------------------------------------------------------------------ *)

let test_failures_calm_never_fails () =
  let rtt = Array.make_matrix 10 10 50. in
  for i = 0 to 9 do rtt.(i).(i) <- 0. done;
  let net = Network.create ~rtt_ms:rtt ~seed:1 () in
  let engine : unit Engine.t = Engine.create ~network:net () in
  let _ = Failures.install ~engine ~profile:Failures.calm ~seed:1 () in
  Engine.run_until engine 10000.;
  for i = 0 to 9 do
    check_int (Printf.sprintf "node %d" i) 0 (Network.down_links net i)
  done

let test_failures_links_fail_and_recover () =
  let n = 20 in
  let rtt = Array.make_matrix n n 50. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let net = Network.create ~rtt_ms:rtt ~seed:1 () in
  let engine : unit Engine.t = Engine.create ~network:net () in
  let profile =
    { Failures.mean_time_to_failure_s = 200.; mean_downtime_s = 50.;
      flaky_fraction = 0.; flaky_rate_multiplier = 1. }
  in
  let _ = Failures.install ~engine ~profile ~seed:3 () in
  (* sample total down links over time: must be sometimes nonzero (failures
     happen) and on average near the stationary expectation *)
  let samples = ref [] in
  let rec sample () =
    let total = ref 0 in
    for i = 0 to n - 1 do total := !total + Network.down_links net i done;
    samples := float_of_int (!total / 2) :: !samples;
    if Engine.now engine < 20000. then Engine.schedule engine ~delay:100. sample
  in
  Engine.schedule engine ~delay:100. sample;
  Engine.run_until engine 20000.;
  let mean = Stats.mean !samples in
  (* stationary down probability = 50/250 = 0.2 per link; 190 links -> 38 *)
  check_bool (Printf.sprintf "mean down links %.1f" mean) true (mean > 20. && mean < 60.);
  check_bool "max nonzero" true (Stats.maximum !samples > 0.)

let test_failures_flaky_nodes_worse () =
  let n = 40 in
  let rtt = Array.make_matrix n n 50. in
  for i = 0 to n - 1 do rtt.(i).(i) <- 0. done;
  let net = Network.create ~rtt_ms:rtt ~seed:1 () in
  let engine : unit Engine.t = Engine.create ~network:net () in
  let t = Failures.install ~engine ~profile:Failures.planetlab ~seed:17 () in
  let flaky = Failures.flaky_nodes t in
  check_bool "some flaky nodes" true (flaky <> []);
  (* accumulate mean down-links for flaky vs normal nodes *)
  let down = Array.make n 0 in
  let ticks = ref 0 in
  let rec sample () =
    incr ticks;
    for i = 0 to n - 1 do down.(i) <- down.(i) + Network.down_links net i done;
    if Engine.now engine < 30000. then Engine.schedule engine ~delay:60. sample
  in
  Engine.schedule engine ~delay:60. sample;
  Engine.run_until engine 30000.;
  let mean_of nodes =
    Stats.mean (List.map (fun i -> float_of_int down.(i) /. float_of_int !ticks) nodes)
  in
  let normal = List.filter (fun i -> not (Failures.is_flaky t i)) (List.init n Fun.id) in
  check_bool "flaky nodes see more failures" true (mean_of flaky > 2. *. mean_of normal)

let test_failures_respect_node_range () =
  let n = 10 in
  let rtt = Array.make_matrix (n + 1) (n + 1) 50. in
  for i = 0 to n do rtt.(i).(i) <- 0. done;
  let net = Network.create ~rtt_ms:rtt ~seed:1 () in
  let engine : unit Engine.t = Engine.create ~network:net () in
  let profile =
    { Failures.mean_time_to_failure_s = 20.; mean_downtime_s = 1000.;
      flaky_fraction = 0.; flaky_rate_multiplier = 1. }
  in
  (* coordinator at port n excluded from failures *)
  let _ = Failures.install ~engine ~last_node:(n - 1) ~profile ~seed:5 () in
  Engine.run_until engine 5000.;
  check_int "coordinator untouched" 0 (Network.down_links net n)

(* The one-timer-per-link model the flat one replaced, kept as the
   reference: every link arms its own engine timer for its next
   transition, and each firing draws the next sojourn. *)
let reference_install ~engine ?(first_node = 0) ?last_node ~(profile : Failures.profile) ~seed
    () =
  let network = Engine.network engine in
  let last_node = Option.value last_node ~default:(Network.size network - 1) in
  let rng = Rng.split (Rng.make ~seed) "failures" in
  let flaky = Array.make (Network.size network) false in
  for i = first_node to last_node do
    flaky.(i) <- Rng.bernoulli rng ~p:profile.flaky_fraction
  done;
  let base_rate =
    if Float.is_finite profile.mean_time_to_failure_s then 1. /. profile.mean_time_to_failure_s
    else 0.
  in
  let node_rate i = if flaky.(i) then base_rate *. profile.flaky_rate_multiplier else base_rate in
  let rec schedule_failure i j rate =
    if rate > 0. then begin
      let delay = Rng.exponential rng ~mean:(1. /. rate) in
      Engine.schedule engine ~delay (fun () ->
          Network.set_link_up network i j false;
          let downtime = Rng.exponential rng ~mean:profile.mean_downtime_s in
          Engine.schedule engine ~delay:downtime (fun () ->
              Network.set_link_up network i j true;
              schedule_failure i j rate))
    end
  in
  for i = first_node to last_node do
    for j = i + 1 to last_node do
      schedule_failure i j ((node_rate i +. node_rate j) /. 2.)
    done
  done;
  List.filter (fun i -> flaky.(i)) (List.init (Network.size network) Fun.id)

type failure_case = {
  n : int;
  first : int;
  last : int;
  fseed : int;
  profile : Failures.profile;
  horizon : float;
}

let print_failure_case c =
  Printf.sprintf "n=%d nodes=[%d,%d] seed=%d mttf=%g down=%g flaky=%g x%g horizon=%g" c.n
    c.first c.last c.fseed c.profile.Failures.mean_time_to_failure_s
    c.profile.Failures.mean_downtime_s c.profile.Failures.flaky_fraction
    c.profile.Failures.flaky_rate_multiplier c.horizon

let gen_failure_case =
  QCheck.Gen.(
    let* n = int_range 2 12 in
    let* first = int_range 0 (n - 1) in
    let* last = int_range first (n - 1) in
    let* fseed = int_range 0 1_000_000 in
    let* mttf = oneof [ return infinity; float_range 20. 2000. ] in
    let* down = float_range 1. 300. in
    let* flaky_fraction = oneof [ return 0.; return 1.; float_range 0. 1. ] in
    let* mult = float_range 1. 40. in
    let* horizon = float_range 0. 3000. in
    return
      {
        n;
        first;
        last;
        fseed;
        profile =
          {
            Failures.mean_time_to_failure_s = mttf;
            mean_downtime_s = down;
            flaky_fraction;
            flaky_rate_multiplier = mult;
          };
        horizon;
      })

(* Run one model alone on its own engine up to the horizon and log every
   link transition as (time, i, j, up), read off the network after each
   engine event; [on_step] sees the engine between events. *)
let failure_log c ~install ~on_step =
  let rtt = Array.make_matrix c.n c.n 10. in
  let net = Network.create ~rtt_ms:rtt ~seed:1 () in
  let engine : unit Engine.t = Engine.create ~network:net () in
  let flaky = install engine in
  let state = Array.init c.n (fun i -> Array.init c.n (fun j -> Network.link_up net i j)) in
  let log = ref [] in
  on_step engine;
  let rec go () =
    if Engine.step engine && Engine.now engine <= c.horizon then begin
      for i = 0 to c.n - 1 do
        for j = i + 1 to c.n - 1 do
          let up = Network.link_up net i j in
          if up <> state.(i).(j) then begin
            state.(i).(j) <- up;
            log := (Engine.now engine, i, j, up) :: !log
          end
        done
      done;
      on_step engine;
      go ()
    end
  in
  go ();
  (flaky, List.rev !log)

let failures_equivalence_qcheck =
  QCheck.Test.make ~count:300 ~name:"one wakeup = one timer per link"
    (QCheck.make gen_failure_case ~print:print_failure_case)
    (fun c ->
      let install_ref engine =
        reference_install ~engine ~first_node:c.first ~last_node:c.last ~profile:c.profile
          ~seed:c.fseed ()
      in
      let install_flat engine =
        Failures.flaky_nodes
          (Failures.install ~engine ~first_node:c.first ~last_node:c.last ~profile:c.profile
             ~seed:c.fseed ())
      in
      let most = ref 0 in
      let ref_flaky, ref_log = failure_log c ~install:install_ref ~on_step:ignore in
      let flaky, log =
        failure_log c ~install:install_flat ~on_step:(fun e ->
            most := max !most (Engine.pending e))
      in
      if flaky <> ref_flaky then QCheck.Test.fail_report "flaky nodes differ";
      if !most > 1 then QCheck.Test.fail_reportf "%d failure-model events pending" !most;
      (if log <> ref_log then
         let pp (t, i, j, up) =
           Printf.sprintf "%h %d-%d %s" t i j (if up then "up" else "down")
         in
         let rec first_diff a b k =
           match (a, b) with
           | x :: a, y :: b when x = y -> first_diff a b (k + 1)
           | x :: _, y :: _ -> Printf.sprintf "event %d: reference %s, flat %s" k (pp x) (pp y)
           | [], y :: _ -> Printf.sprintf "event %d: reference ends, flat %s" k (pp y)
           | x :: _, [] -> Printf.sprintf "event %d: reference %s, flat ends" k (pp x)
           | [], [] -> "equal"
         in
         QCheck.Test.fail_report (first_diff ref_log log 0));
      true)

(* --- Scenario -------------------------------------------------------------------- *)

let test_scenario_executes_timeline () =
  let rtt = Array.make_matrix 3 3 10. in
  for i = 0 to 2 do rtt.(i).(i) <- 0. done;
  let net = Network.create ~rtt_ms:rtt ~seed:1 () in
  let engine : unit Engine.t = Engine.create ~network:net () in
  Scenario.install ~engine
    [
      (10., Scenario.Link_down (0, 1));
      (20., Scenario.Set_rtt (0, 2, 99.));
      (30., Scenario.Link_up (0, 1));
      (40., Scenario.Node_down 2);
    ];
  Engine.run_until engine 15.;
  check_bool "link down at 15" false (Network.link_up net 0 1);
  Engine.run_until engine 25.;
  check_float "rtt changed" 99. (Network.rtt_ms net 0 2);
  Engine.run_until engine 35.;
  check_bool "link back" true (Network.link_up net 0 1);
  Engine.run_until engine 45.;
  check_int "node 2 dead" 2 (Network.down_links net 2)

let test_scenario_pp () =
  let s = Format.asprintf "%a" Scenario.pp_action (Scenario.Link_down (1, 2)) in
  check_bool "prints" true (s = "link 1-2 down")

let () =
  Alcotest.run "apor_topology"
    [
      ( "geo",
        [
          Alcotest.test_case "known distance" `Quick test_geo_distance_known_points;
          Alcotest.test_case "zero distance" `Quick test_geo_distance_zero;
          Alcotest.test_case "rtt access floor" `Quick test_geo_rtt_floor;
          Alcotest.test_case "deterministic placement" `Quick test_geo_place_deterministic;
          Alcotest.test_case "matrix symmetric" `Quick test_geo_matrix_symmetric_zero_diag;
          Alcotest.test_case "rejects bad args" `Quick test_geo_rejects_bad_args;
        ] );
      ( "internet",
        [
          Alcotest.test_case "shape" `Quick test_internet_shape;
          Alcotest.test_case "TIVs exist" `Quick test_internet_inflation_creates_tivs;
          Alcotest.test_case "bad nodes marked" `Quick test_internet_bad_nodes_marked;
          Alcotest.test_case "deterministic by seed" `Quick test_internet_deterministic;
          Alcotest.test_case "loss bounds" `Quick test_internet_loss_bounds;
          Alcotest.test_case "usable as network" `Quick test_internet_usable_as_network;
        ] );
      ( "failures",
        [
          Alcotest.test_case "calm profile" `Quick test_failures_calm_never_fails;
          Alcotest.test_case "fail and recover" `Slow test_failures_links_fail_and_recover;
          Alcotest.test_case "flaky nodes worse" `Slow test_failures_flaky_nodes_worse;
          Alcotest.test_case "respects node range" `Quick test_failures_respect_node_range;
          QCheck_alcotest.to_alcotest failures_equivalence_qcheck;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "timeline" `Quick test_scenario_executes_timeline;
          Alcotest.test_case "pretty printing" `Quick test_scenario_pp;
        ] );
    ]
