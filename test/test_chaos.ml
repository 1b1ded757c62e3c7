open Apor_chaos
open Apor_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* --- Sexp -------------------------------------------------------------------- *)

let test_sexp_parse () =
  match Sexp.parse "(a b (c 1.5)) atom ; comment\n(d)" with
  | Ok [ List [ Atom "a"; Atom "b"; List [ Atom "c"; Atom "1.5" ] ]; Atom "atom"; List [ Atom "d" ] ]
    ->
      ()
  | Ok other ->
      Alcotest.failf "unexpected parse: %s"
        (String.concat " " (List.map (Format.asprintf "%a" Sexp.pp) other))
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_sexp_errors () =
  check_bool "unclosed paren" true (Result.is_error (Sexp.parse "(a (b)"));
  check_bool "stray close" true (Result.is_error (Sexp.parse "a)"));
  (match Sexp.parse "\n\n(a" with
  | Error e -> check_bool "line number in error" true (String.length e > 0 && e.[5] = '3')
  | Ok _ -> Alcotest.fail "unclosed form accepted");
  match Sexp.parse "   ; only a comment\n" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "comment-only input should parse to nothing"

(* --- Scenario combinators ----------------------------------------------------- *)

let flap = Scenario.Link_flap { a = 0; b = 1; duration_s = 10. }

let test_combinators () =
  check_int "at" 1 (List.length (Scenario.at 5. flap));
  let ev = Scenario.every ~period_s:10. ~t0:100. ~t1:140. flap in
  check_int "every is half-open" 4 (List.length ev);
  check_float "every starts at t0" 100. (List.hd ev).Scenario.at;
  let st = Scenario.stagger ~t0:50. ~gap_s:5. [ flap; flap; flap ] in
  check_float "stagger spacing" 60. (List.nth st 2).Scenario.at;
  let rng = Rng.split (Rng.make ~seed:9) "t" in
  let s1 =
    Scenario.sample ~rng ~k:5 ~t0:10. ~t1:20. (fun _ -> flap)
  in
  check_int "sample count" 5 (List.length s1);
  check_bool "sample sorted within bounds" true
    (List.for_all (fun e -> e.Scenario.at >= 10. && e.Scenario.at < 20.) s1
    && List.sort compare s1 = s1);
  let rng' = Rng.split (Rng.make ~seed:9) "t" in
  let s2 = Scenario.sample ~rng:rng' ~k:5 ~t0:10. ~t1:20. (fun _ -> flap) in
  check_bool "sample deterministic per rng" true (s1 = s2)

let test_make_sorts_events () =
  let scn =
    Scenario.make ~name:"t" ~n:4 ~seed:1 ~warmup_s:0. ~horizon_s:100. ~grace_s:10.
      [ Scenario.at 50. flap; Scenario.at 20. flap ]
  in
  check_float "sorted" 20. (List.hd scn.Scenario.events).Scenario.at;
  check_bool "validates" true (Result.is_ok (Scenario.validate scn))

let test_validate_rejects () =
  let mk events = Scenario.make ~name:"t" ~n:4 ~seed:1 ~warmup_s:10. ~horizon_s:100. ~grace_s:5. events in
  let bad events = Result.is_error (Scenario.validate (mk events)) in
  check_bool "node out of range" true
    (bad [ Scenario.at 20. (Scenario.Node_crash { node = 4; down_s = 5. }) ]);
  check_bool "self link" true
    (bad [ Scenario.at 20. (Scenario.Link_flap { a = 2; b = 2; duration_s = 5. }) ]);
  check_bool "loss above 1" true
    (bad [ Scenario.at 20. (Scenario.Loss_burst { a = 0; b = 1; loss = 1.5; duration_s = 5. }) ]);
  check_bool "negative duration" true
    (bad [ Scenario.at 20. (Scenario.Link_flap { a = 0; b = 1; duration_s = -1. }) ]);
  check_bool "fires in warmup" true (bad [ Scenario.at 5. flap ]);
  check_bool "fires past horizon" true (bad [ Scenario.at 100. flap ]);
  check_bool "no room to recover" true (bad [ Scenario.at 95. flap ]);
  check_bool "ok inside envelope" true (not (bad [ Scenario.at 20. flap ]))

let test_membership_scenarios () =
  let mk ?(members = 3) events =
    Scenario.make ~name:"t" ~n:5 ~members ~seed:1 ~warmup_s:10. ~horizon_s:100.
      ~grace_s:5. ~require_recovery:false events
  in
  let bad ?members events = Result.is_error (Scenario.validate (mk ?members events)) in
  check_bool "kill of a live member ok" false
    (bad [ Scenario.at 20. (Scenario.Node_kill { node = 1 }) ]);
  check_bool "kill of a pending joiner rejected" true
    (bad [ Scenario.at 20. (Scenario.Node_kill { node = 4 }) ]);
  check_bool "double kill rejected" true
    (bad
       [
         Scenario.at 20. (Scenario.Node_kill { node = 1 });
         Scenario.at 30. (Scenario.Node_kill { node = 1 });
       ]);
  check_bool "join of a pending node ok" false
    (bad [ Scenario.at 20. (Scenario.Node_join { node = 3 }) ]);
  check_bool "join of a genesis member rejected" true
    (bad [ Scenario.at 20. (Scenario.Node_join { node = 0 }) ]);
  check_bool "double join rejected" true
    (bad
       [
         Scenario.at 20. (Scenario.Node_join { node = 3 });
         Scenario.at 30. (Scenario.Node_join { node = 3 });
       ]);
  check_bool "join after kill frees the slot" false
    (bad
       [
         Scenario.at 20. (Scenario.Node_join { node = 3 });
         Scenario.at 30. (Scenario.Node_kill { node = 3 });
         Scenario.at 40. (Scenario.Node_join { node = 4 });
       ]);
  check_bool "members below 2 rejected" true (bad ~members:1 []);
  check_bool "coordinator-outage + membership rejected" true
    (bad
       [
         Scenario.at 20. (Scenario.Node_join { node = 3 });
         Scenario.at 30. (Scenario.Coordinator_outage { duration_s = 10. });
       ]);
  let scn =
    mk
      [
        Scenario.at 20. (Scenario.Node_join { node = 3 });
        Scenario.at 50. (Scenario.Node_kill { node = 0 });
      ]
  in
  check_bool "uses_membership" true (Scenario.uses_membership scn);
  check_bool "static scenario does not" false
    (Scenario.uses_membership
       (Scenario.make ~name:"t" ~n:5 ~seed:1 ~warmup_s:10. ~horizon_s:100. ~grace_s:5.
          ~require_recovery:false [ Scenario.at 20. flap ]));
  check_bool "live at start" true (Scenario.live_at scn 0. = [ 0; 1; 2 ]);
  check_bool "live after join" true (Scenario.live_at scn 20. = [ 0; 1; 2; 3 ]);
  check_bool "live after kill" true (Scenario.live_at scn 60. = [ 1; 2; 3 ]);
  check_bool "joins listed in order" true (Scenario.joins scn = [ (20., 3) ]);
  (* kill/join are instantaneous: scale moves their times, not durations *)
  let s = Scenario.scale scn 0.1 in
  check_float "kill time scaled" 5. (List.nth s.Scenario.events 1).Scenario.at;
  check_float "kill stays instantaneous" 0.
    (Scenario.duration_of (List.nth s.Scenario.events 1).Scenario.fault)

let test_membership_loader () =
  let text =
    {|
(name m) (n 6) (members 4) (seed 3)
(warmup 10) (horizon 100) (grace 5) (require-recovery false)
(at 20 (node-kill 1))
(at 30 (node-join 4))
|}
  in
  match Scenario.of_string text with
  | Error e -> Alcotest.failf "loader: %s" e
  | Ok scn ->
      check_int "members header" 4 scn.Scenario.members;
      check_bool "kill parsed" true
        (List.exists
           (fun ev -> ev.Scenario.fault = Scenario.Node_kill { node = 1 })
           scn.Scenario.events);
      check_bool "join parsed" true
        (List.exists
           (fun ev -> ev.Scenario.fault = Scenario.Node_join { node = 4 })
           scn.Scenario.events)

let test_scale () =
  let scn =
    Scenario.make ~name:"t" ~n:4 ~seed:1 ~warmup_s:60. ~horizon_s:600. ~grace_s:30.
      [ Scenario.at 100. flap ]
  in
  let s = Scenario.scale scn 0.1 in
  check_float "warmup scaled" 6. s.Scenario.warmup_s;
  check_float "horizon scaled" 60. s.Scenario.horizon_s;
  let ev = List.hd s.Scenario.events in
  check_float "event time scaled" 10. ev.Scenario.at;
  check_float "duration scaled" 1. (Scenario.duration_of ev.Scenario.fault);
  check_bool "scaled scenario still validates" true (Result.is_ok (Scenario.validate s))

(* --- Scenario files ----------------------------------------------------------- *)

let scn_text =
  {|
; test scenario
(name loader-test)
(n 8)
(seed 21)
(warmup 30)
(horizon 300)
(grace 20)
(require-recovery false)
(at 40 (link-flap 0 5 10))
(at 50 (loss-burst 1 2 0.5 10))
(at 60 (latency-spike 3 4 4 10))
(at 70 (region-outage (1 2) 10))
(at 80 (node-crash 6 10))
(at 90 (frame-corrupt 2 0.25 10))
(every 20 100 160 (frame-duplicate 0 0.1 5))
(stagger 170 10 (frame-reorder 1 0.1 5) (link-flap 6 7 5))
(sample 3 200 240 (link-flap * * 8))
|}

let test_loader () =
  match Scenario.of_string scn_text with
  | Error e -> Alcotest.failf "loader: %s" e
  | Ok scn ->
      check_string "name" "loader-test" scn.Scenario.name;
      check_int "n" 8 scn.Scenario.n;
      check_int "seed" 21 scn.Scenario.seed;
      check_bool "require-recovery honoured" false scn.Scenario.require_recovery;
      (* 6 ats + 3 every + 2 stagger + 3 sample *)
      check_int "event count" 14 (List.length scn.Scenario.events);
      check_bool "validates" true (Result.is_ok (Scenario.validate scn));
      check_bool "sorted" true
        (List.for_all2
           (fun a b -> a.Scenario.at <= b.Scenario.at)
           scn.Scenario.events
           (List.tl scn.Scenario.events @ [ List.hd (List.rev scn.Scenario.events) ]))

let test_loader_deterministic_wildcards () =
  let load () =
    match Scenario.of_string scn_text with Ok s -> s | Error e -> Alcotest.failf "%s" e
  in
  check_bool "two loads produce identical timelines" true (load () = load ());
  let sampled =
    List.filter
      (fun ev -> ev.Scenario.at >= 200.)
      (load ()).Scenario.events
  in
  check_bool "wildcard links resolved to distinct in-range endpoints" true
    (List.for_all
       (fun ev ->
         match ev.Scenario.fault with
         | Scenario.Link_flap { a; b; _ } -> a <> b && a >= 0 && a < 8 && b >= 0 && b < 8
         | _ -> false)
       sampled)

let test_loader_rejects () =
  let bad text = Result.is_error (Scenario.of_string text) in
  check_bool "missing n" true (bad "(name x) (seed 1)");
  check_bool "unknown fault" true
    (bad "(name x) (n 4) (seed 1) (at 130 (meteor-strike 1))");
  check_bool "unknown header" true (bad "(name x) (n 4) (seed 1) (colour blue)");
  check_bool "invalid event survives to validate" true
    (bad "(name x) (n 4) (seed 1) (at 130 (link-flap 0 9 10))")

(* --- Injector compilation ------------------------------------------------------ *)

let test_timeline () =
  let scn =
    Scenario.make ~name:"t" ~n:4 ~seed:1 ~warmup_s:0. ~horizon_s:100. ~grace_s:5.
      [
        Scenario.at 10. (Scenario.Node_crash { node = 2; down_s = 30. });
        Scenario.at 20. flap;
      ]
  in
  let tl = Injector.timeline scn in
  check_int "two actions per fault" 4 (List.length tl);
  (match tl with
  | [ (10., Injector.Crash 2); (20., Link_set { up = false; _ });
      (30., Link_set { up = true; _ }); (40., Restart 2) ] ->
      ()
  | _ ->
      Alcotest.failf "unexpected timeline: %s"
        (String.concat "; "
           (List.map
              (fun (t, a) -> Format.asprintf "%.0f %a" t Injector.pp_action a)
              tl)));
  check_bool "windows" true (Injector.windows scn = [ (10., 40.); (20., 30.) ]);
  (* kill and join compile to a single action: no clearing counterpart *)
  let mscn =
    Scenario.make ~name:"t" ~n:5 ~members:4 ~seed:1 ~warmup_s:0. ~horizon_s:100.
      ~grace_s:5. ~require_recovery:false
      [
        Scenario.at 10. (Scenario.Node_kill { node = 1 });
        Scenario.at 20. (Scenario.Node_join { node = 4 });
      ]
  in
  match Injector.timeline mscn with
  | [ (10., Injector.Kill 1); (20., Injector.Join 4) ] -> ()
  | tl ->
      Alcotest.failf "unexpected membership timeline: %s"
        (String.concat "; "
           (List.map
              (fun (t, a) -> Format.asprintf "%.0f %a" t Injector.pp_action a)
              tl))

(* --- Sim end to end ------------------------------------------------------------ *)

let quick_scn =
  Scenario.make ~name:"unit-sim" ~n:9 ~seed:5 ~warmup_s:60. ~horizon_s:200. ~grace_s:45.
    [
      Scenario.at 70. (Scenario.Link_flap { a = 0; b = 4; duration_s = 30. });
      Scenario.at 90. (Scenario.Node_crash { node = 5; down_s = 30. });
    ]

let run_sim_exn scn =
  match Runner.run_sim scn with
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "run_sim: %s" e

let test_run_sim_smoke () =
  let outcome = run_sim_exn quick_scn in
  let score = outcome.Runner.score in
  check_bool "passed" true outcome.Runner.passed;
  check_int "no out-of-grace violations" 0 score.Score.violations_out_of_grace;
  check_int "all pairs recovered" score.Score.pairs_total score.Score.pairs_recovered;
  check_int "one window per fault" 2 (List.length score.Score.windows);
  check_bool "oracle was exercised" true (score.Score.oracle_checks > 0);
  check_bool "crash dents availability" true
    (List.exists (fun w -> w.Score.avail_during < 1.) score.Score.windows);
  check_bool "sim runs carry no transport block" true (score.Score.transport = None)

let test_run_sim_deterministic () =
  (* the PR's determinism gate: identical scenario + seed => byte-identical
     score JSON *)
  let j1 = Score.to_json (run_sim_exn quick_scn).Runner.score in
  let j2 = Score.to_json (run_sim_exn quick_scn).Runner.score in
  check_string "byte-identical JSON" j1 j2

let test_run_sim_rejects_invalid () =
  check_bool "invalid scenario refused" true
    (Result.is_error
       (Runner.run_sim
          (Scenario.make ~name:"bad" ~n:4 ~seed:1 ~horizon_s:50. [ Scenario.at 200. flap ])))

(* --- Membership chaos (tentpole: kill forever + live joins) -------------------- *)

let membership_scn =
  Scenario.make ~name:"unit-membership" ~n:9 ~members:8 ~seed:11 ~warmup_s:25.
    ~horizon_s:220. ~grace_s:45. ~require_recovery:false
    [
      Scenario.at 30. (Scenario.Node_kill { node = 2 });
      Scenario.at 80. (Scenario.Node_join { node = 8 });
    ]

let test_run_sim_membership () =
  let outcome = run_sim_exn membership_scn in
  let score = outcome.Runner.score in
  check_bool "passed" true outcome.Runner.passed;
  check_int "no out-of-grace violations" 0 score.Score.violations_out_of_grace;
  check_int "the join was requested" 1 score.Score.joins_requested;
  check_int "the join was admitted" 1 score.Score.joins_admitted;
  (* live at the horizon: 8 genesis - 1 killed + 1 joined = 8 members *)
  check_int "pairs scoped to live members" (8 * 7) score.Score.pairs_total

(* The refused-join gate (regression: a udp run whose joins never land
   must exit non-zero): joins_admitted < joins_requested fails the score
   even with a silent oracle and full recovery. *)
let test_refused_join_fails () =
  let score = (run_sim_exn membership_scn).Runner.score in
  check_bool "sane baseline" true (Score.passed score ~require_recovery:false);
  let refused = { score with Score.joins_admitted = 0 } in
  check_bool "refused join fails without recovery required" false
    (Score.passed refused ~require_recovery:false);
  check_bool "refused join fails with recovery required" false
    (Score.passed refused ~require_recovery:true)

(* --- UDP runtime fault hooks (satellite: per-peer drop accounting) ------------- *)

(* Socket-less sandboxes (CI) make these tests skip, mirroring
   `apor deploy-local`. *)
let with_udp ~n ~base_port f =
  let module Udp = Apor_deploy.Udp_runtime in
  let config = Apor_overlay_core.Config.deploy_local in
  match Udp.create ~config ~n ~base_port ~seed:3 () with
  | exception Unix.Unix_error _ -> ()
  | udp -> Fun.protect ~finally:(fun () -> Udp.close udp) (fun () -> f udp)

let test_udp_injected_drop_accounting () =
  let module Udp = Apor_deploy.Udp_runtime in
  with_udp ~n:3 ~base_port:9450 (fun udp ->
      Udp.set_fault_injector udp (Some (fun ~now:_ ~src:_ ~dst:_ -> Udp.Drop));
      Udp.start udp;
      Udp.run udp ~duration:1.5;
      let stats = Udp.stats udp in
      check_int "nothing escapes a total drop" 0 stats.Udp.datagrams_received;
      check_bool "frames were attempted" true (stats.Udp.frames_dropped > 0);
      let injected = ref 0 in
      for src = 0 to 2 do
        for dst = 0 to 2 do
          if src <> dst then begin
            let ls = Udp.link_stats udp ~src ~dst in
            injected := !injected + ls.Udp.dropped_injected;
            check_int "injected drops never reach the kernel" 0 ls.Udp.sent
          end
        done
      done;
      check_int "per-link injected sums to the global counter" stats.Udp.frames_dropped
        !injected)

let test_udp_corrupt_counted_undecodable () =
  let module Udp = Apor_deploy.Udp_runtime in
  with_udp ~n:3 ~base_port:9460 (fun udp ->
      Udp.set_fault_injector udp (Some (fun ~now:_ ~src:_ ~dst:_ -> Udp.Corrupt));
      Udp.start udp;
      Udp.run udp ~duration:1.5;
      let undecodable = ref 0 in
      for i = 0 to 2 do
        undecodable := !undecodable + Udp.undecodable udp i
      done;
      check_bool "corrupted frames rejected on arrival" true (!undecodable > 0);
      (* datagrams_received counts raw recvfrom; every one must have been
         rejected, so no node ever covered a pair *)
      check_int "every received frame undecodable"
        (Udp.stats udp).Udp.datagrams_received !undecodable;
      check_int "no recommendation ever applied" 0 (fst (Udp.coverage udp)))

let test_udp_kill_restart () =
  let module Udp = Apor_deploy.Udp_runtime in
  with_udp ~n:3 ~base_port:9470 (fun udp ->
      Udp.start udp;
      Udp.run udp ~duration:0.3;
      check_bool "alive after start" true (Udp.node_alive udp 1);
      Udp.kill_node udp 1;
      Udp.kill_node udp 1;
      check_bool "kill is idempotent and sticks" false (Udp.node_alive udp 1);
      Udp.run udp ~duration:0.3;
      check_bool "others unaffected" true (Udp.node_alive udp 0 && Udp.node_alive udp 2);
      Udp.restart_node udp 1;
      check_bool "restarted" true (Udp.node_alive udp 1);
      Udp.run udp ~duration:1.5;
      let covered, total = Udp.coverage udp in
      check_int "restarted node rejoined and re-covered all pairs" total covered)

let test_udp_join_rejected_under_static () =
  let module Udp = Apor_deploy.Udp_runtime in
  with_udp ~n:3 ~base_port:9480 (fun udp ->
      Alcotest.check_raises "join_node under static membership"
        (Invalid_argument "Udp_runtime.join_node: membership is static") (fun () ->
          Udp.join_node udp 2))

let () =
  Alcotest.run "apor_chaos"
    [
      ( "sexp",
        [
          Alcotest.test_case "parse" `Quick test_sexp_parse;
          Alcotest.test_case "errors" `Quick test_sexp_errors;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "combinators" `Quick test_combinators;
          Alcotest.test_case "make sorts" `Quick test_make_sorts_events;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "membership kill/join" `Quick test_membership_scenarios;
          Alcotest.test_case "membership loader" `Quick test_membership_loader;
          Alcotest.test_case "scale" `Quick test_scale;
          Alcotest.test_case "loader" `Quick test_loader;
          Alcotest.test_case "loader wildcards deterministic" `Quick
            test_loader_deterministic_wildcards;
          Alcotest.test_case "loader rejects" `Quick test_loader_rejects;
        ] );
      ( "injector",
        [ Alcotest.test_case "timeline and windows" `Quick test_timeline ] );
      ( "runner(sim)",
        [
          Alcotest.test_case "smoke" `Quick test_run_sim_smoke;
          Alcotest.test_case "deterministic score JSON" `Quick test_run_sim_deterministic;
          Alcotest.test_case "rejects invalid scenario" `Quick test_run_sim_rejects_invalid;
          Alcotest.test_case "membership kill-forever + join" `Quick test_run_sim_membership;
          Alcotest.test_case "refused join fails the score" `Quick test_refused_join_fails;
        ] );
      ( "udp faults",
        [
          Alcotest.test_case "injected drops accounted per link" `Quick
            test_udp_injected_drop_accounting;
          Alcotest.test_case "corruption counted undecodable" `Quick
            test_udp_corrupt_counted_undecodable;
          Alcotest.test_case "kill/restart" `Quick test_udp_kill_restart;
          Alcotest.test_case "join refused under static membership" `Quick
            test_udp_join_rejected_under_static;
        ] );
    ]
