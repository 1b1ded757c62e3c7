(* Quickstart: the paper's Figure 2/3 walk-through, live.

   Builds a 9-node overlay on a simulated network, prints the grid quorum,
   runs the two-round protocol until routes converge, and shows node 9's
   (node 8, 0-based) rendezvous servers and the best-hop recommendations it
   received — the exact picture of Figure 3(b).

   Run with:  dune exec examples/quickstart.exe *)

open Apor_quorum
open Apor_overlay
open Apor_overlay_core

let n = 9

(* A small synthetic internet: mostly 50 ms links, with two expensive
   paths that have cheap one-hop detours. *)
let rtt_ms =
  let m = Array.make_matrix n n 50. in
  for i = 0 to n - 1 do
    m.(i).(i) <- 0.
  done;
  let set i j v =
    m.(i).(j) <- v;
    m.(j).(i) <- v
  in
  set 8 0 400.;
  (* 8 -> 4 -> 0 is much cheaper than the direct 400 ms path *)
  set 8 4 45.;
  set 4 0 45.;
  set 8 1 300.;
  set 1 5 40.;
  set 8 5 40.;
  m

let () =
  let grid = Grid.build n in
  Format.printf "Grid quorum for n = %d nodes (Figure 2):@.%a@.@." n Grid.pp grid;
  Format.printf "Node 8's rendezvous servers (Figure 3a): %s@.@."
    (String.concat ", " (List.map string_of_int (Grid.rendezvous_servers grid 8)));

  let cluster =
    Cluster.create ~config:Config.quorum_default ~rtt_ms ~seed:2009 ()
  in
  Cluster.start cluster;
  (* one probing interval to measure, two routing intervals to converge *)
  Cluster.run_until cluster 120.;

  Format.printf "Best one-hop routes learned by node 8 (Figure 3b):@.";
  Format.printf "  %-4s %-9s %-12s@." "Dst" "Best-hop" "Freshness";
  for dst = 0 to n - 1 do
    if dst <> 8 then begin
      let hop =
        match Cluster.best_hop cluster ~src:8 ~dst with
        | Some h when h = dst -> "direct"
        | Some h -> string_of_int h
        | None -> "?"
      in
      let freshness =
        match Cluster.freshness cluster ~src:8 ~dst with
        | Some age -> Printf.sprintf "%.0fs ago" age
        | None -> "never"
      in
      Format.printf "  %-4d %-9s %-12s@." dst hop freshness
    end
  done;
  Format.printf
    "@.Note the detours: 8 reaches 0 via 4 (90 ms instead of 400 ms direct)@.\
     and 8 reaches 1 via 5 (80 ms instead of 300 ms direct).@."
