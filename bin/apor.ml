(* apor — all-pairs overlay routing toolbox.

   Subcommands:
     grid          inspect the grid quorum construction for a given overlay size
     theory        print the closed-form bandwidth model and capacity table
     emulate       run an overlay emulation and report bandwidth and freshness
     detour        generate a synthetic internet and report one-hop detour gains
     deploy-local  run the protocol over real loopback UDP sockets
     chaos         replay a fault scenario and score resilience *)

open Cmdliner
open Apor_util
open Apor_quorum
open Apor_core
open Apor_overlay
open Apor_overlay_core
open Apor_topology

(* --- grid ------------------------------------------------------------------ *)

let run_grid n node =
  let grid = Grid.build n in
  Format.printf "Grid quorum for n = %d (%d rows x %d cols, last row %d):@.%a@."
    n (Grid.rows grid) (Grid.cols grid) (Grid.last_row_length grid) Grid.pp grid;
  (match node with
  | Some id when id >= 0 && id < n ->
      let row, col = Grid.position grid id in
      Format.printf "@.Node %d sits at (row %d, col %d).@." id row col;
      Format.printf "Rendezvous servers/clients: %s@."
        (String.concat ", " (List.map string_of_int (Grid.rendezvous_servers grid id)))
  | Some id -> Format.printf "@.Node %d is outside [0, %d).@." id n
  | None -> ());
  match Grid.verify grid with
  | Ok () -> Format.printf "@.Invariants: cover, symmetry and balance all hold.@."
  | Error msg -> Format.printf "@.INVARIANT VIOLATION: %s@." msg

let grid_cmd =
  let n =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Overlay size.")
  in
  let node =
    Arg.(value & opt (some int) None & info [ "node" ] ~docv:"ID" ~doc:"Show one node's rendezvous sets.")
  in
  Cmd.v
    (Cmd.info "grid" ~doc:"Inspect the grid quorum construction")
    Term.(const run_grid $ n $ node)

(* --- theory ----------------------------------------------------------------- *)

let run_theory sizes budget =
  let module B = Apor_analysis.Bandwidth in
  let table =
    Texttable.create
      ~header:
        [ "n"; "probing kbps"; "RON routing"; "quorum routing"; "RON total"; "quorum total"; "factor" ]
  in
  List.iter
    (fun n ->
      Texttable.add_row table
        [
          string_of_int n;
          Printf.sprintf "%.1f" (B.probing_bps ~n /. 1000.);
          Printf.sprintf "%.1f" (B.routing_bps B.Full_mesh ~n /. 1000.);
          Printf.sprintf "%.1f" (B.routing_bps B.Quorum ~n /. 1000.);
          Printf.sprintf "%.1f" (B.total_bps B.Full_mesh ~n /. 1000.);
          Printf.sprintf "%.1f" (B.total_bps B.Quorum ~n /. 1000.);
          Printf.sprintf "%.1fx" (B.crossover_factor ~n);
        ])
    sizes;
  Texttable.print table;
  Format.printf
    "@.A budget of %.0f kbps supports %d full-mesh nodes vs %d quorum nodes.@."
    (budget /. 1000.)
    (B.max_nodes_within B.Full_mesh ~budget_bps:budget)
    (B.max_nodes_within B.Quorum ~budget_bps:budget)

let theory_cmd =
  let sizes =
    Arg.(
      value
      & opt (list int) [ 50; 100; 140; 200; 300; 416; 1000 ]
      & info [ "sizes" ] ~docv:"N,..." ~doc:"Overlay sizes to tabulate.")
  in
  let budget =
    Arg.(value & opt float 56000. & info [ "budget" ] ~docv:"BPS" ~doc:"Bandwidth budget in bits/s.")
  in
  Cmd.v
    (Cmd.info "theory" ~doc:"Closed-form bandwidth model (Section 6.1)")
    Term.(const run_theory $ sizes $ budget)

(* --- emulate ----------------------------------------------------------------- *)

let algorithm_conv =
  let parse = function
    | "quorum" -> Ok Config.Quorum
    | "fullmesh" | "full-mesh" | "ron" -> Ok Config.Full_mesh
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S (quorum|fullmesh)" s))
  in
  let print ppf = function
    | Config.Quorum -> Format.fprintf ppf "quorum"
    | Config.Full_mesh -> Format.fprintf ppf "fullmesh"
  in
  Arg.conv (parse, print)

let run_emulate n algorithm duration failures seed =
  let config =
    match algorithm with
    | Config.Quorum -> Config.quorum_default
    | Config.Full_mesh -> Config.ron_default
  in
  let world = Internet.generate ~seed ~n () in
  let cluster =
    Cluster.create ~config ~rtt_ms:world.Internet.rtt_ms ~loss:world.Internet.loss ~seed ()
  in
  if failures then begin
    let (_ : Failures.t) =
      Failures.install ~engine:(Cluster.engine cluster) ~profile:Failures.planetlab ~seed ()
    in
    ()
  end;
  Cluster.start cluster;
  let warmup = 120. in
  let horizon = warmup +. duration in
  Format.printf "Running %d-node %s overlay for %.0f virtual seconds%s...@."
    n
    (match algorithm with Config.Quorum -> "quorum" | Config.Full_mesh -> "full-mesh")
    duration
    (if failures then " with PlanetLab-style failures" else "");
  Cluster.run_until cluster horizon;
  let routing = List.init n (fun node -> Cluster.routing_kbps cluster ~node ~t0:warmup ~t1:horizon) in
  let total = List.init n (fun node -> Cluster.total_kbps cluster ~node ~t0:warmup ~t1:horizon) in
  (match (Stats.summarize routing, Stats.summarize total) with
  | Some r, Some t ->
      Format.printf "@.Per-node routing traffic: mean %.1f kbps, max %.1f kbps@." r.Stats.mean r.Stats.max;
      Format.printf "Per-node total traffic:   mean %.1f kbps, max %.1f kbps@." t.Stats.mean t.Stats.max
  | _ -> ());
  let fresh =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst -> if src = dst then None else Cluster.freshness cluster ~src ~dst)
          (List.init n Fun.id))
      (List.init (min n 24) Fun.id)
  in
  match Stats.summarize fresh with
  | Some f ->
      Format.printf "Route freshness (sampled): median %.1fs, p97 %.1fs, max %.1fs@."
        f.Stats.p50 f.Stats.p97 f.Stats.max
  | None -> Format.printf "No freshness data (overlay too young?)@."

let emulate_cmd =
  let n = Arg.(value & opt int 49 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Overlay size.") in
  let algorithm =
    Arg.(value & opt algorithm_conv Config.Quorum & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc:"quorum or fullmesh.")
  in
  let duration =
    Arg.(value & opt float 300. & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc:"Measured virtual time.")
  in
  let failures = Arg.(value & flag & info [ "failures" ] ~doc:"Inject PlanetLab-style link failures.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Experiment seed.") in
  Cmd.v
    (Cmd.info "emulate" ~doc:"Run an overlay emulation and report traffic/freshness")
    Term.(const run_emulate $ n $ algorithm $ duration $ failures $ seed)

(* --- deploy-local ------------------------------------------------------------ *)

(* A node count or [--base-port] the UDP runtime cannot lay out (fewer
   than two nodes, or some node's port outside [1, 65535]) is a usage
   error, reported (exit 124) before any socket is bound. *)
let with_ports ~n ~base_port run =
  match Apor_deploy.Udp_runtime.check_layout ~n ~base_port with
  | Ok () -> `Ok (run ())
  | Error e -> `Error (true, Printf.sprintf "%d nodes from --base-port %d: %s" n base_port e)

(* The same protocol core the simulator runs, over real loopback UDP at
   the compressed deploy-local timescales ({!Config.deploy_local}). *)
let run_deploy_local n duration quick base_port seed json =
  with_ports ~n ~base_port @@ fun () ->
  let module Udp = Apor_deploy.Udp_runtime in
  let config = Config.deploy_local in
  let duration = if quick then Float.min duration 6.0 else duration in
  let trace, oracle = Apor_dataplane.Run.observe config in
  match Udp.create ~config ~n ~base_port ~trace ~seed () with
  | exception Unix.Unix_error (err, fn, _) ->
      (* No usable loopback sockets (sandboxed CI, exhausted ports):
         report and skip rather than fail the smoke test. *)
      Format.printf "deploy-local: sockets unavailable (%s in %s); skipping@."
        (Unix.error_message err) fn;
      exit 0
  | udp ->
      Format.printf
        "deploy-local: %d nodes on 127.0.0.1:%d-%d, %.0fs wall clock (r = %.1fs)...@."
        n base_port (base_port + n - 1) duration config.Config.routing_interval_s;
      Udp.start udp;
      Udp.run udp ~duration;
      let covered, total = Udp.coverage udp in
      Apor_trace.Oracle.check_traffic oracle ~n
        ~accounted:(fun node -> Udp.accounted_bytes udp node)
        ~now:(Udp.now udp);
      let violations = Apor_trace.Oracle.violation_count oracle in
      let stats = Udp.stats udp in
      let freshness =
        List.concat_map
          (fun src ->
            List.filter_map
              (fun dst ->
                if src = dst then None
                else
                  Apor_overlay_core.Node_core.freshness (Udp.node_core udp src)
                    ~now:(Udp.now udp) ~dst_port:dst)
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      Udp.close udp;
      let fresh_summary = Stats.summarize freshness in
      let buf = Buffer.create 512 in
      Buffer.add_string buf "{";
      Printf.bprintf buf "\"n\": %d, \"duration_s\": %.3f, " n (Udp.now udp);
      Printf.bprintf buf "\"pairs_covered\": %d, \"pairs_total\": %d, " covered total;
      Printf.bprintf buf "\"oracle_violations\": %d, " violations;
      Printf.bprintf buf
        "\"recommendations_checked\": %d, \"applications_checked\": %d, \"rec_gaps\": %d, "
        (Apor_trace.Oracle.recommendations_checked oracle)
        (Apor_trace.Oracle.applications_checked oracle)
        (Apor_trace.Oracle.rec_gaps oracle);
      Printf.bprintf buf
        "\"datagrams_sent\": %d, \"datagrams_received\": %d, \"send_retries\": %d, \"frames_dropped\": %d, "
        stats.Udp.datagrams_sent stats.Udp.datagrams_received stats.Udp.send_retries
        stats.Udp.frames_dropped;
      Printf.bprintf buf "\"trace_events\": %d" (Apor_trace.Collector.total trace);
      (match fresh_summary with
      | Some f ->
          Printf.bprintf buf ", \"freshness_p50_s\": %.3f, \"freshness_max_s\": %.3f"
            f.Stats.p50 f.Stats.max
      | None -> ());
      Buffer.add_string buf "}";
      let payload = Buffer.contents buf in
      (match json with
      | Some path ->
          let oc = open_out path in
          output_string oc payload;
          output_string oc "\n";
          close_out oc;
          Format.printf "wrote %s@." path
      | None -> Format.printf "%s@." payload);
      Format.printf "coverage: %d/%d pairs; oracle violations: %d@." covered total
        violations;
      List.iter
        (fun v -> Format.printf "  %a@." Apor_trace.Oracle.pp_violation v)
        (Apor_trace.Oracle.violations oracle);
      if covered < total || violations > 0 then exit 1

let deploy_local_cmd =
  let n = Arg.(value & opt int 9 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Overlay size.") in
  let duration =
    Arg.(value & opt float 20. & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc:"Wall-clock run time.")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Cap the run at 6 s (CI smoke).") in
  let base_port =
    Arg.(value & opt int 9000 & info [ "base-port" ] ~docv:"PORT" ~doc:"First UDP port; node i binds PORT+i.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Node RNG seed.") in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc:"Write the metrics JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "deploy-local"
       ~doc:"Run the sans-IO protocol core over real loopback UDP sockets")
    Term.(ret (const run_deploy_local $ n $ duration $ quick $ base_port $ seed $ json))

(* --- detour ------------------------------------------------------------------- *)

let run_detour n seed threshold =
  let world = Internet.generate ~seed ~n () in
  let m = Costmat.of_arrays world.Internet.rtt_ms in
  let routes = Fullmesh.one_hop_routes m in
  let high = ref 0 and fixed = ref 0 and gains = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let direct = Costmat.get m i j in
      if direct > threshold then begin
        incr high;
        let best = routes.(i).(j).Best_hop.cost in
        if best <= threshold then incr fixed;
        gains := (direct -. best) :: !gains
      end
    done
  done;
  Format.printf "%d-node synthetic internet (seed %d):@." n seed;
  Format.printf "  %d pairs above %.0f ms@." !high threshold;
  if !high > 0 then begin
    Format.printf "  %d (%.1f%%) fixed by the optimal one-hop@." !fixed
      (100. *. float_of_int !fixed /. float_of_int !high);
    match Stats.summarize !gains with
    | Some g ->
        Format.printf "  detour gain: median %.0f ms, mean %.0f ms, max %.0f ms@."
          g.Stats.p50 g.Stats.mean g.Stats.max
    | None -> ()
  end

let detour_cmd =
  let n = Arg.(value & opt int 359 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Overlay size.") in
  let seed = Arg.(value & opt int 23 & info [ "seed" ] ~docv:"SEED" ~doc:"World seed.") in
  let threshold =
    Arg.(value & opt float 400. & info [ "threshold" ] ~docv:"MS" ~doc:"High-latency threshold.")
  in
  Cmd.v
    (Cmd.info "detour" ~doc:"One-hop detour statistics on a synthetic internet (Figure 1)")
    Term.(const run_detour $ n $ seed $ threshold)

(* --- chaos ------------------------------------------------------------------- *)

let run_chaos scenario_file runtime json base_port time_scale verbose =
  let module Scenario = Apor_chaos.Scenario in
  let module Runner = Apor_chaos.Runner in
  match Scenario.load scenario_file with
  | Error e ->
      Format.eprintf "chaos: %s@." e;
      exit 2
  | Ok scn -> (
      let checked run =
        match runtime with
        | `Udp -> with_ports ~n:scn.Scenario.n ~base_port run
        | `Sim -> `Ok (run ())
      in
      checked @@ fun () ->
      Format.printf "%a@." Scenario.pp scn;
      let progress = if verbose then fun s -> Format.printf "  %s@." s else fun _ -> () in
      let result =
        match runtime with
        | `Sim -> Runner.run_sim ~progress scn
        | `Udp -> Runner.run_udp ~base_port ?time_scale ~progress scn
      in
      match result with
      | Error e when runtime = `Udp && String.length e >= 7 && String.sub e 0 7 = "sockets"
        ->
          (* No usable loopback sockets (sandboxed CI): skip, like
             deploy-local does. *)
          Format.printf "chaos: %s; skipping@." e;
          exit 0
      | Error e ->
          Format.eprintf "chaos: %s@." e;
          exit 2
      | Ok outcome ->
          print_string (Apor_analysis.Resilience.render outcome.Runner.score);
          (match json with
          | Some path ->
              let oc = open_out path in
              output_string oc (Apor_chaos.Score.to_json outcome.Runner.score);
              close_out oc;
              Format.printf "wrote %s@." path
          | None -> ());
          if outcome.Runner.violations <> [] then begin
            Format.printf "oracle violations:@.";
            List.iter
              (fun v -> Format.printf "  %a@." Apor_trace.Oracle.pp_violation v)
              outcome.Runner.violations
          end;
          if not outcome.Runner.passed then begin
            let score = outcome.Runner.score in
            Format.printf "FAILED: %s@."
              (if score.Apor_chaos.Score.violations_out_of_grace > 0 then
                 "invariant violations outside fault windows"
               else if
                 score.Apor_chaos.Score.joins_admitted
                 < score.Apor_chaos.Score.joins_requested
               then "join events refused or lost"
               else "pairs without a fresh route at the horizon");
            exit 1
          end;
          Format.printf "PASSED@.")

let chaos_cmd =
  let scenario =
    Arg.(
      required
      & opt (some file) None
      & info [ "scenario"; "s" ] ~docv:"FILE" ~doc:"Scenario file (.scn s-expressions).")
  in
  let runtime =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("udp", `Udp) ]) `Sim
      & info [ "runtime"; "r" ] ~docv:"RUNTIME"
          ~doc:"Replay on the simulator (sim) or over loopback UDP (udp).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the resilience score JSON to FILE.")
  in
  let base_port =
    Arg.(
      value & opt int 9300
      & info [ "base-port" ] ~docv:"PORT" ~doc:"First UDP port (udp runtime).")
  in
  let time_scale =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-scale" ] ~docv:"FACTOR"
          ~doc:"Wall seconds per scenario second on udp (default 1/30).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print injections and samples.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Replay a fault scenario with the invariant oracle attached and score resilience")
    Term.(
      ret (const run_chaos $ scenario $ runtime $ json $ base_port $ time_scale $ verbose))

(* --- traffic ----------------------------------------------------------------- *)

let run_traffic runtime n seed duration shape rate payload hotspot closed window think
    churn base_port json =
  let module Workload = Apor_dataplane.Workload in
  let module Run = Apor_dataplane.Run in
  let shape =
    match Workload.parse_shape shape with
    | Ok s -> s
    | Error e ->
        Format.eprintf "traffic: %s@." e;
        exit 2
  in
  let matrix =
    match hotspot with
    | None -> Workload.Uniform
    | Some targets -> Workload.Hotspot { targets }
  in
  let mode =
    if closed then Workload.Closed_loop { window; think_s = think } else Workload.Open_loop
  in
  let spec =
    { Workload.shape; matrix; mode; rate_pps = rate; payload_bytes = payload }
  in
  let finish (r : Run.report) =
    (match json with
    | Some path ->
        let oc = open_out path in
        output_string oc r.Run.json;
        close_out oc;
        Format.printf "wrote %s@." path
    | None -> print_string r.Run.json);
    Format.printf
      "sent %d, delivered %d, goodput %.1f kbps; oracle violations %d (%d conservation)@."
      r.Run.sent r.Run.delivered r.Run.goodput_kbps r.Run.violations
      r.Run.conservation_violations;
    if r.Run.conservation_violations > 0 then begin
      Format.printf "FAILED: conservation violations@.";
      exit 1
    end
  in
  match runtime with
  | `Sim -> `Ok (finish (Run.run_sim ?n ~seed ?duration_s:duration ~spec ~churn ()))
  | `Udp -> (
      let n = Option.value n ~default:8 (* as Run.run_udp *) in
      with_ports ~n ~base_port @@ fun () ->
      match Run.run_udp ~n ~seed ?duration_s:duration ~base_port ~spec () with
      | Error e when String.length e >= 7 && String.sub e 0 7 = "sockets" ->
          Format.printf "traffic: %s; skipping@." e;
          exit 0
      | Error e ->
          Format.eprintf "traffic: %s@." e;
          exit 2
      | Ok r ->
          finish r;
          if r.Run.goodput_kbps <= 0. then begin
            Format.printf "FAILED: zero goodput over real sockets@.";
            exit 1
          end)

let traffic_cmd =
  let runtime =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("udp", `Udp) ]) `Sim
      & info [ "runtime"; "r" ] ~docv:"RUNTIME"
          ~doc:"Generate traffic on the simulator (sim) or over loopback UDP (udp).")
  in
  let n =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Overlay size (default: 144 sim, 8 udp).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload and overlay seed.") in
  let duration =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration"; "d" ] ~docv:"SECONDS"
          ~doc:"Traffic interval after warmup (default: 300 virtual sim, 6 wall udp).")
  in
  let shape =
    Arg.(
      value & opt string "constant"
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:
            "Load shape: constant, diurnal[:period=S,trough=F], or \
             flash[:at=S,dur=S,boost=F].")
  in
  let rate =
    Arg.(value & opt float 200. & info [ "rate" ] ~docv:"PPS" ~doc:"Aggregate datagrams per second.")
  in
  let payload =
    Arg.(value & opt int 64 & info [ "payload" ] ~docv:"BYTES" ~doc:"Datagram payload size.")
  in
  let hotspot =
    Arg.(
      value
      & opt (some int) None
      & info [ "hotspot" ] ~docv:"K"
          ~doc:"Concentrate destinations on the first K nodes (default: uniform matrix).")
  in
  let closed =
    Arg.(value & flag & info [ "closed" ] ~doc:"Closed-loop flows instead of open-loop arrivals.")
  in
  let window =
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"FLOWS" ~doc:"Concurrent closed-loop flows.")
  in
  let think =
    Arg.(value & opt float 0.1 & info [ "think" ] ~docv:"SECONDS" ~doc:"Closed-loop think time.")
  in
  let churn =
    Arg.(value & flag & info [ "churn" ] ~doc:"Install the PlanetLab failure profile (sim only).")
  in
  let base_port =
    Arg.(
      value & opt int 9400
      & info [ "base-port" ] ~docv:"PORT" ~doc:"First UDP port (udp runtime).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the traffic report JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Drive user datagrams over the overlay's one-hop routes and report goodput, \
          stretch and loss")
    Term.(
      ret
        (const run_traffic $ runtime $ n $ seed $ duration $ shape $ rate $ payload $ hotspot
       $ closed $ window $ think $ churn $ base_port $ json))

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "apor" ~version:"1.0.0"
             ~doc:"Scaling all-pairs overlay routing (CoNEXT 2009) toolbox")
          [
            grid_cmd;
            theory_cmd;
            emulate_cmd;
            detour_cmd;
            deploy_local_cmd;
            chaos_cmd;
            traffic_cmd;
          ]))
