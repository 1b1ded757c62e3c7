(* Memory by part: where a warmed simulator cluster's live heap goes.

   One cluster on a synthetic Internet (map seed [--seed], run seed 1),
   quorum defaults, PlanetLab link churn and an open loop of 200
   datagrams/s, run for [sim_s] simulated seconds; then a full major
   collection and [Obj.reachable_words] of each part: the routers'
   link-state tables, their round-two caches beyond the tables' rows,
   their connecting slices with recommendation times, their routes, the
   link monitors' arrays, the failure model and the engine's pending
   events.  The cluster's live heap is every word reachable from the
   cluster, the failure model and the datagram driver together.  Prints
   the parts, the live and top heap, the peak RSS where
   the OS reports it, and the wall time per simulated second. *)

open Apor_util
open Apor_overlay
open Apor_overlay_core
open Apor_topology

let section title =
  Printf.printf "\n==================== %s ====================\n" title

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* The process's peak resident set, from /proc/self/status (Linux). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> Some kb
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
      in
      let r = scan () in
      close_in ic;
      r

let run ~quick ~seed ?n ?sim_s () =
  let n = Option.value n ~default:(if quick then 64 else 256) in
  let sim_s = Option.value sim_s ~default:(if quick then 60. else 120.) in
  section (Printf.sprintf "Memory by part (n = %d, %.0f simulated s)" n sim_s);
  Printf.printf
    "map seed %d, run seed 1, quorum defaults, PlanetLab link churn, 200 datagrams/s;\n\
     Obj.reachable_words after a full major collection, summed over nodes.\n%!"
    seed;
  let wall0 = Unix.gettimeofday () in
  let config = Config.quorum_default in
  let world = Internet.generate ~seed ~n () in
  let cluster =
    Cluster.create ~config ~rtt_ms:world.Internet.rtt_ms ~loss:world.Internet.loss ~seed:1 ()
  in
  let engine = Cluster.engine cluster in
  let failures = Failures.install ~engine ~profile:Failures.planetlab ~seed:1 () in
  let metrics = Apor_dataplane.Metrics.create ~window_s:10. ~t0:0. in
  let driver =
    Apor_dataplane.Driver.attach
      (Apor_dataplane.Host.of_cluster cluster)
      ~spec:Apor_dataplane.Workload.default ~seed:1 ~metrics ()
  in
  Cluster.start cluster;
  Cluster.run_until cluster sim_s;
  let wall = Unix.gettimeofday () -. wall0 in
  Gc.full_major ();
  let sum f =
    List.fold_left (fun acc port -> acc + f (Cluster.node cluster port)) 0 (List.init n Fun.id)
  in
  let router f node =
    match Node.quorum_router node with Some r -> f (Router.state_words r) | None -> 0
  in
  let parts =
    [
      ("link-state table", sum (router (fun w -> w.Router.table_words)));
      ("pair cache (beyond the rows)", sum (router (fun w -> w.Router.cache_words)));
      ("connecting slices and rec times", sum (router (fun w -> w.Router.rendezvous_words)));
      ("routes", sum (router (fun w -> w.Router.routes_words)));
      ("recommendation batches", sum (router (fun w -> w.Router.batch_words)));
      ("monitor arrays", sum (fun node -> Monitor.state_words (Node.monitor node)));
      ("failure model", Obj.reachable_words (Obj.repr failures));
      ("engine queue", Apor_sim.Engine.queue_words engine);
    ]
  in
  let table = Texttable.create ~header:[ "part"; "MiB"; "KiB per node" ] in
  List.iter
    (fun (name, words) ->
      Texttable.add_row table
        [
          name;
          Printf.sprintf "%.1f" (mib words);
          Printf.sprintf "%.1f" (mib words *. 1024. /. float_of_int n);
        ])
    parts;
  Texttable.print table;
  let stat = Gc.quick_stat () in
  Printf.printf "pending events: %d\n" (Apor_sim.Engine.pending engine);
  Printf.printf "cluster live heap: %.1f MiB\n"
    (mib (Obj.reachable_words (Obj.repr (cluster, failures, driver))));
  Printf.printf "top heap: %.1f MiB\n" (mib stat.Gc.top_heap_words);
  (match peak_rss_kb () with
  | Some kb -> Printf.printf "peak RSS: %.1f MiB\n" (float_of_int kb /. 1024.)
  | None -> Printf.printf "peak RSS: not reported by this OS\n");
  Printf.printf "wall: %.1f s (%.3f s per simulated second, warm-up included)\n" wall
    (wall /. sim_s)
