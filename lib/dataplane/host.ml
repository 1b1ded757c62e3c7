(** What a runtime lends the data plane and the canned runs above it.

    The protocol cores are written once; so are the data-plane driver
    ({!Driver}), the traffic run ({!Run}) and the chaos run body
    ([Apor_chaos.Runner]).  They reach the runtime only through this
    record, built once per run by {!of_cluster} (the discrete-event
    simulator) or {!of_udp} (real loopback sockets).  It carries exactly
    what differs between the two: the clock and its timers, the per-node
    routing queries, the byte accounting, how a datagram goes on the
    wire, the data sink and the stretch baseline. *)

open Apor_sim

(** Where a delivery's stretch baseline (the direct one-way latency)
    comes from. *)
type baseline =
  | Half_rtt of (src:int -> dst:int -> float)
      (** Half the pair's RTT in seconds, read at origination — the
          simulator knows its latency matrix. *)
  | Min_zero_hop
      (** The minimum zero-hop latency observed so far for the
          (origin, dst) pair, the delivery being recorded included — the
          real transport has no matrix.  Pairs never seen direct give
          latency samples but no stretch sample. *)

type t = {
  n : int;  (** overlay nodes: ports [0, n) *)
  now : unit -> float;
  schedule_at : float -> (unit -> unit) -> unit;
      (** Run a callback at an absolute time on the host's clock (at once
          when that time has passed). *)
  run_until : float -> unit;  (** Advance the runtime to an absolute time. *)
  best_hop : now:float -> src:int -> dst:int -> int option;
      (** [src]'s current one-hop recommendation toward [dst]. *)
  freshness : now:float -> src:int -> dst:int -> float option;
      (** Age of that recommendation. *)
  current_view : int -> Apor_overlay_core.View.t option;
  accounted_ports : int;
      (** Endpoints the transport charges bytes to (the simulator's
          membership coordinator included). *)
  accounted_bytes : int -> int;
      (** Protocol-level bytes charged to an endpoint so far, in + out:
          the transport side of the oracle's traffic-conservation check. *)
  send : src:int -> dst:int -> Packet.t -> unit;
      (** One transport hop for a user datagram. *)
  set_sink : (now:float -> node:int -> Packet.t -> bool) -> unit;
      (** Install the datagram receiver, replacing any earlier one.  It
          returns [false] for a packet it rejects; the real transport
          then stops parsing the batch there and counts the rest as
          undecodable. *)
  baseline : baseline;
  think_floor_s : float;
      (** Shortest closed-loop think time: a wall-clock loop must not
          spin on zero-delay timers. *)
}

(** The simulator: engine clock and timers, {!Apor_sim.Traffic} byte
    accounting, datagrams as {!Apor_overlay_core.Message.Dgram} engine
    sends, {!Half_rtt} baselines. *)
let of_cluster cluster =
  let module Cluster = Apor_overlay.Cluster in
  let engine = Cluster.engine cluster in
  let network = Cluster.network cluster in
  let traffic = Cluster.traffic cluster in
  {
    n = Cluster.n cluster;
    now = (fun () -> Engine.now engine);
    schedule_at = (fun time f -> Engine.schedule_at engine ~time f);
    run_until = Cluster.run_until cluster;
    best_hop = (fun ~now:_ ~src ~dst -> Cluster.best_hop cluster ~src ~dst);
    freshness = (fun ~now:_ ~src ~dst -> Cluster.freshness cluster ~src ~dst);
    current_view = (fun port -> Apor_overlay.Node.current_view (Cluster.node cluster port));
    accounted_ports = Traffic.n traffic;
    accounted_bytes =
      (fun node ->
        List.fold_left
          (fun sum cls ->
            sum
            + Traffic.bytes_in_range traffic ~cls ~node ~t0:0. ~t1:(Engine.now engine +. 1.))
          0 Traffic.all_classes);
    send = Cluster.send_dgram cluster;
    set_sink =
      (fun sink ->
        Cluster.set_dgram_sink cluster (fun ~now ~node p -> ignore (sink ~now ~node p : bool)));
    baseline =
      Half_rtt (fun ~src ~dst -> Network.rtt_ms network src dst /. 2. /. 1000.);
    think_floor_s = 1e-9;
  }

(** The real transport: the runtime's monotonic clock and timer heap,
    datagrams packed into batches by
    {!Apor_deploy.Udp_runtime.send_data}, a sink that parses each
    arriving batch with {!Packet.decode_from}, {!Min_zero_hop}
    baselines. *)
let of_udp udp =
  let module Udp = Apor_deploy.Udp_runtime in
  let module Node_core = Apor_overlay_core.Node_core in
  {
    n = Udp.n udp;
    now = (fun () -> Udp.now udp);
    schedule_at = (fun at f -> Udp.schedule udp ~delay:(at -. Udp.now udp) f);
    run_until =
      (fun time ->
        let left = time -. Udp.now udp in
        if left > 0. then Udp.run udp ~duration:left);
    best_hop =
      (fun ~now ~src ~dst -> Node_core.best_hop (Udp.node_core udp src) ~now ~dst_port:dst);
    freshness =
      (fun ~now ~src ~dst -> Node_core.freshness (Udp.node_core udp src) ~now ~dst_port:dst);
    current_view = (fun port -> Node_core.current_view (Udp.node_core udp port));
    accounted_ports = Udp.n udp;
    accounted_bytes = Udp.accounted_bytes udp;
    send =
      (fun ~src ~dst p ->
        Udp.send_data udp ~src ~dst ~size:(Packet.size p) ~fill:(fun buf pos ->
            Packet.encode_into p buf ~pos));
    set_sink =
      (fun sink ->
        (* One arriving UDP datagram holds packets back to back: consume
           as many as parse and are accepted, and report how far that
           got — the runtime accounts only the consumed prefix. *)
        Udp.set_data_sink udp
          (Some
             (fun ~now ~node ~wire_src:_ ~buf ~len ->
               let pos = ref 0 in
               let stop = ref false in
               while (not !stop) && !pos < len do
                 match Packet.decode_from buf ~pos:!pos ~limit:len with
                 | Ok (p, next) when sink ~now ~node p -> pos := next
                 | Ok _ | Error _ -> stop := true
               done;
               !pos)));
    baseline = Min_zero_hop;
    think_floor_s = 1e-4;
  }
