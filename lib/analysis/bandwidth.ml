open Apor_quorum
open Apor_linkstate
open Apor_overlay_core

type algorithm = Config.algorithm = Full_mesh | Quorum

let probing_bps ~n = 49.1 *. float_of_int n

let routing_bps algorithm ~n =
  let nf = float_of_int n in
  match algorithm with
  | Full_mesh -> (1.6 *. nf *. nf) +. (24.5 *. nf)
  | Quorum -> (6.4 *. nf *. sqrt nf) +. (17.1 *. nf) +. (196.3 *. sqrt nf)

let total_bps algorithm ~n = probing_bps ~n +. routing_bps algorithm ~n

let probing_bps_exact ~config ~n =
  (* Per probing interval a node sends n-1 probes and n-1 replies and
     receives the same; every packet is Overhead.probe_bytes. *)
  let packets = 4. *. float_of_int (n - 1) in
  packets *. float_of_int Overhead.probe_bytes *. 8. /. config.Config.probe_interval_s

let routing_bps_exact ~config ~n =
  let r = config.Config.routing_interval_s in
  match config.Config.algorithm with
  | Config.Full_mesh ->
      let out_bytes =
        float_of_int ((n - 1) * Overhead.link_state_bytes ~n)
      in
      2. *. out_bytes *. 8. /. r
  | Config.Quorum ->
      (* Average over nodes of: deg announcements out plus deg
         recommendation messages out (one per client, deg entries each);
         incoming equals outgoing by grid symmetry. *)
      let grid = Grid.build n in
      let total_out =
        let acc = ref 0 in
        for i = 0 to n - 1 do
          let deg = List.length (Grid.rendezvous_servers grid i) in
          acc :=
            !acc
            + (deg * Overhead.link_state_bytes ~n)
            + (deg * Overhead.recommendation_message_bytes ~entries:deg)
        done;
        float_of_int !acc /. float_of_int n
      in
      2. *. total_out *. 8. /. r

let max_nodes_within algorithm ~budget_bps =
  if budget_bps <= 0. then 0
  else begin
    let rec grow n = if total_bps algorithm ~n <= budget_bps then grow (n * 2) else n in
    let hi = grow 2 in
    let rec bisect lo hi =
      (* invariant: total(lo) <= budget < total(hi) *)
      if hi - lo <= 1 then lo
      else begin
        let mid = (lo + hi) / 2 in
        if total_bps algorithm ~n:mid <= budget_bps then bisect mid hi else bisect lo mid
      end
    in
    if total_bps algorithm ~n:1 > budget_bps then 0 else bisect 1 hi
  end

let crossover_factor ~n = routing_bps Full_mesh ~n /. routing_bps Quorum ~n
