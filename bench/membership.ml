(* Membership bench: what does admitting one node cost?

   For each overlay size the sweep runs the same staggered-join schedule
   twice — once through the decentralized quorum-write protocol
   (lib/membership) and once through the legacy coordinator
   ([Cluster.Coordinator]) — and reports per-join admission
   latency plus the membership-class messages and bytes the whole overlay
   exchanged from the join request until the view settles.  The message
   window deliberately includes the post-commit announce and the gossip
   it triggers: the protocol's cost is the full ripple, not just the
   joiner's critical path. *)

open Apor_util
open Apor_overlay
module Config = Apor_overlay_core.Config
module View = Apor_overlay_core.View
module Collector = Apor_trace.Collector
module Event = Apor_trace.Event

let section title =
  Printf.printf "\n==================== %s ====================\n" title

type point = {
  m_n : int;  (** genesis members *)
  m_mode : string;  (** "quorum" or "centralized" *)
  m_joiners : int;
  m_join_mean_s : float;
  m_join_max_s : float;
  m_msgs_per_join : float;
  m_bytes_per_join : float;
  m_hot_node_msgs : float;
      (** membership packets through the busiest single endpoint per join
          (sent + received) *)
  m_hot_distinct : int;
      (** how many different endpoints were the busiest one across the
          joins: the coordinator is always the same node, quorum sponsors
          rotate with the joiner's contact list *)
}

let warmup_s = 30.
let settle_s = 5. (* keep counting this long after admission: the commit
                     announce and first gossip round are part of the bill *)
let gap_s = 10. (* quiet time between joins so windows don't overlap *)
let poll_s = 0.05
let join_deadline_s = 120.

let admitted cluster j =
  match Node.current_view (Cluster.node cluster j) with
  | Some v -> View.contains_port v j
  | None -> false

let measure ~seed ~membership ?(joiners = 3) () =
  let n, mode =
    match membership with
    | Cluster.Dynamic { initial; _ } -> (initial, "quorum")
    | Cluster.Coordinator { initial; _ } -> (initial, "centralized")
    | Cluster.Static -> invalid_arg "Membership.measure: static membership admits no joins"
  in
  let total = n + joiners in
  let rtt = Array.make_matrix total total 40. in
  for i = 0 to total - 1 do
    rtt.(i).(i) <- 0.
  done;
  let trace = Collector.create ~capacity:1024 () in
  (* Count membership-class sends only while a join window is open; the
     subscription sees every event even after the tiny ring wraps. *)
  let counting = ref false in
  let msgs = ref 0 in
  let bytes = ref 0 in
  (* sent + received per endpoint; +1 slot for a possible coordinator *)
  let per_node = Array.make (total + 1) 0 in
  (* admission latency from the trace, not the poll grid: the instant the
     joiner adopts its first view (the committed one containing it) *)
  let joining = ref (-1) in
  let admit_time = ref Float.nan in
  Collector.subscribe trace (fun (tv : Collector.timed) ->
      match tv.event with
      | Event.Send { cls = Msgclass.Membership; src; dst; bytes = b } when !counting
        ->
          incr msgs;
          bytes := !bytes + b;
          per_node.(src) <- per_node.(src) + 1;
          per_node.(dst) <- per_node.(dst) + 1
      | Event.View_adopted { node; _ }
        when node = !joining && Float.is_nan !admit_time ->
          admit_time := tv.time
      | _ -> ());
  let cluster =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:rtt ~membership ~trace ~seed ()
  in
  Cluster.start cluster;
  Cluster.run_until cluster warmup_s;
  let latencies = ref [] in
  for j = n to total - 1 do
    let t0 = Cluster.now cluster in
    msgs := 0;
    bytes := 0;
    Array.fill per_node 0 (Array.length per_node) 0;
    joining := j;
    admit_time := Float.nan;
    counting := true;
    Cluster.join_node cluster j;
    while
      (not (admitted cluster j)) && Cluster.now cluster -. t0 < join_deadline_s
    do
      Cluster.run_until cluster (Cluster.now cluster +. poll_s)
    done;
    if not (admitted cluster j) then
      failwith
        (Printf.sprintf "membership bench: join of node %d not admitted within %gs \
                         (n=%d, %s)"
           j join_deadline_s n mode);
    (* the coordinator path predates View_adopted; fall back to the poll
       grid there (granularity [poll_s]) *)
    let latency =
      if Float.is_nan !admit_time then Cluster.now cluster -. t0
      else !admit_time -. t0
    in
    Cluster.run_until cluster (Cluster.now cluster +. settle_s);
    counting := false;
    joining := -1;
    let hot = ref 0 and hot_id = ref 0 in
    Array.iteri
      (fun i c -> if c > !hot then (hot := c; hot_id := i))
      per_node;
    latencies := (latency, !msgs, !bytes, !hot, !hot_id) :: !latencies;
    Cluster.run_until cluster (Cluster.now cluster +. gap_s)
  done;
  let samples = List.rev !latencies in
  let k = float_of_int (List.length samples) in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. samples in
  let hot_ids =
    List.sort_uniq compare (List.map (fun (_, _, _, _, id) -> id) samples)
  in
  {
    m_n = n;
    m_mode = mode;
    m_joiners = joiners;
    m_join_mean_s = sum (fun (l, _, _, _, _) -> l) /. k;
    m_join_max_s =
      List.fold_left (fun acc (l, _, _, _, _) -> Float.max acc l) 0. samples;
    m_msgs_per_join = sum (fun (_, m, _, _, _) -> float_of_int m) /. k;
    m_bytes_per_join = sum (fun (_, _, b, _, _) -> float_of_int b) /. k;
    m_hot_node_msgs = sum (fun (_, _, _, h, _) -> float_of_int h) /. k;
    m_hot_distinct = List.length hot_ids;
  }

let run ~quick ~seed =
  section "Membership: admission cost, quorum vs centralized";
  let sizes = if quick then [ 49; 144 ] else [ 49; 144; 400 ] in
  Printf.printf
    "staggered joins of %d nodes after a %gs warm-up; msgs/join counts every\n\
     membership-class packet overlay-wide from the join request until %gs\n\
     after admission (commit announce + first gossip round included).\n"
    3 warmup_s settle_s;
  let table =
    Texttable.create
      ~header:
        [
          "n"; "mode"; "join mean (s)"; "join max (s)"; "msgs/join"; "bytes/join";
          "hot node"; "hot spread";
        ]
  in
  let points = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun membership ->
          let p = measure ~seed ~membership () in
          points := p :: !points;
          Texttable.add_row table
            [
              string_of_int p.m_n;
              p.m_mode;
              Printf.sprintf "%.2f" p.m_join_mean_s;
              Printf.sprintf "%.2f" p.m_join_max_s;
              Printf.sprintf "%.1f" p.m_msgs_per_join;
              Printf.sprintf "%.0f" p.m_bytes_per_join;
              Printf.sprintf "%.1f" p.m_hot_node_msgs;
              Printf.sprintf "%d/%d" p.m_hot_distinct p.m_joiners;
            ])
        [
          Cluster.Dynamic { initial = n; rtt_ms = 40. };
          Cluster.Coordinator { initial = n; rtt_ms = 40. };
        ])
    sizes;
  print_string (Texttable.render table);
  Printf.printf
    "\n\"hot node\" = membership packets through the busiest single endpoint\n\
     per join (sent + received); \"hot spread\" = how many different\n\
     endpoints played that role across the joins.  Both modes move O(n)\n\
     messages per admission in total — the quorum protocol because the\n\
     committed view is announced to every member, the coordinator because\n\
     every member leases from it — but the quorum's hot endpoint is a\n\
     different, freely replaceable sponsor each join (its critical path\n\
     is the O(sqrt n)-ack write to the sponsor's row+column), while the\n\
     coordinator is the same irreplaceable node every time.\n"
