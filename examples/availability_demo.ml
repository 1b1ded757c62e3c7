(* Availability: what the overlay buys an application.

   A 64-node overlay runs while links fail and recover underneath it.
   Every 30 seconds a set of random node pairs tries to communicate, once
   over the plain direct path and once over the overlay's one-hop routes
   (three datagrams per attempt, like an application that retries), both
   through the data-plane driver.  The overlay routes around the failures
   its probing has discovered.

   Run with:  dune exec examples/availability_demo.exe *)

open Apor_util
open Apor_sim
open Apor_overlay
open Apor_overlay_core
open Apor_topology
module Driver = Apor_dataplane.Driver

let n = 64

let () =
  let world = Internet.generate ~seed:11 ~n () in
  let cluster =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:world.Internet.rtt_ms
      ~loss:world.Internet.loss ~seed:11 ()
  in
  let (_ : Failures.t) =
    Failures.install ~engine:(Cluster.engine cluster) ~profile:Failures.planetlab
      ~seed:11 ()
  in
  let engine = Cluster.engine cluster in
  let driver =
    Driver.create
      (Apor_dataplane.Host.of_cluster cluster)
      ~metrics:(Apor_dataplane.Metrics.create ~window_s:30. ~t0:300.) ()
  in
  let rng = Rng.make ~seed:42 in
  let direct_trials = ref [] and overlay_trials = ref [] in
  let attempt ~direct trials src dst =
    let ids = ref [] in
    for k = 0 to 2 do
      Engine.schedule engine ~delay:(float_of_int k) (fun () ->
          ids := Driver.send driver ~src ~dst ~direct :: !ids)
    done;
    trials := ids :: !trials
  in
  let rec sample () =
    if Engine.now engine <= 1800. then begin
      for _ = 1 to 10 do
        let src = Rng.int rng n and dst = Rng.int rng n in
        if src <> dst then begin
          attempt ~direct:true direct_trials src dst;
          attempt ~direct:false overlay_trials src dst
        end
      done;
      Engine.schedule engine ~delay:30. sample
    end
  in
  Engine.schedule_at engine ~time:300. sample;
  Cluster.start cluster;
  Format.printf "running a %d-node overlay for 30 virtual minutes of bad weather...@." n;
  Cluster.run_until cluster 1860.;
  let rate trials =
    let ok =
      List.length
        (List.filter
           (fun ids ->
             List.exists (fun id -> not (Driver.in_flight driver id)) !ids)
           trials)
    in
    100. *. float_of_int ok /. float_of_int (List.length trials)
  in
  let direct = rate !direct_trials and overlay = rate !overlay_trials in
  Format.printf "@.%d communication attempts per strategy:@." (List.length !direct_trials);
  Format.printf "  direct Internet path : %5.1f%% succeeded@." direct;
  Format.printf "  via the overlay      : %5.1f%% succeeded@." overlay;
  Format.printf
    "@.The overlay turned %.1f%% of failed conversations into working ones by@.\
     routing around the broken links its probes had already mapped.@."
    (overlay -. direct)
