(** A whole overlay on a simulated network: the in-system emulation of
    Section 6.

    Builds the network, engine, nodes and (optionally) the membership
    coordinator, wires message dispatch, and exposes the queries the
    benches sample.  With [`Static] membership every node receives the
    full member view at time zero and no coordinator exists — the
    steady-state configuration all the paper's measurements run in.  With
    [`Coordinator] an extra node (port [n]) runs the membership service
    and nodes execute the join protocol. *)

open Apor_sim
open Apor_overlay_core

type membership =
  | Static
  | Coordinator of { rtt_ms : float }
  | Dynamic of { initial : int; rtt_ms : float }
      (** The first [initial] ports are genesis members live at {!start};
          the remaining [n - initial] are pending joiners admitted on
          {!join_node}.  Runs the decentralized quorum-replicated protocol
          ([lib/membership]) — no coordinator exists — unless
          [config.centralized_membership] is set, in which case the old
          coordinator (an extra endpoint at port [n], links at [rtt_ms])
          serves the same split as a comparison baseline. *)

type t

val create :
  config:Config.t ->
  rtt_ms:float array array ->
  ?loss:float array array ->
  ?membership:membership ->
  ?trace:Apor_trace.Collector.t ->
  ?scheduler:Engine.scheduler ->
  seed:int ->
  unit ->
  t
(** [rtt_ms]/[loss] cover the [n] overlay nodes; with a coordinator the
    network gains one extra endpoint whose links have the given RTT and no
    loss.  A [trace] collector is pointed at the engine's virtual clock and
    receives every engine event (send/deliver/drop) plus every node's
    protocol events; attach sinks, subscribers or an
    {!Apor_trace.Oracle} to it before calling {!start}.  [scheduler]
    selects the engine's queue backend (default [Calendar]); both backends
    produce identical event orders, so this only matters for determinism
    regressions and perf comparisons.
    @raise Invalid_argument on malformed matrices. *)

val n : t -> int
(** Number of overlay nodes (excluding any coordinator). *)

val engine : t -> Message.t Engine.t

val engine_stats : t -> Engine.stats
(** Profiling counters of the underlying engine. *)

val network : t -> Network.t

val traffic : t -> Traffic.t

val node : t -> int -> Node.t
(** @raise Invalid_argument for an out-of-range port. *)

val coordinator_port : t -> int option

val start : t -> unit
(** Start every initially-live node (and the coordinator's lease sweep).
    With [Dynamic] membership, pending joiners stay dormant until
    {!join_node}. *)

val join_node : t -> int -> unit
(** Wake a pending joiner: it runs the join protocol (quorum or
    coordinator, per the membership mode) until admitted.  Idempotent.
    @raise Invalid_argument unless [Dynamic] was given and [port] is in
    [\[initial, n)]. *)

val run_until : t -> float -> unit

val now : t -> float

val best_hop : t -> src:int -> dst:int -> int option

val freshness : t -> src:int -> dst:int -> float option

val route_ok : t -> src:int -> dst:int -> bool
(** Would a packet from [src] to [dst] get through {e right now} along
    the current route — the direct link when no recommendation is
    installed, otherwise both legs of the recommended one-hop path?
    Ignores loss (a lossy link is degraded, not unavailable).  This is
    the instantaneous form of the RON-style availability the chaos
    scorer samples around fault windows. *)

val routing_kbps : t -> node:int -> t0:float -> t1:float -> float
(** Routing traffic only (link-state + recommendations), in + out — the
    quantity Figures 9 and 10 plot. *)

val routing_max_window_kbps : t -> node:int -> window:float -> t0:float -> t1:float -> float

val total_kbps : t -> node:int -> t0:float -> t1:float -> float
(** All classes: probing + routing + membership + data. *)

(** {1 Data plane}

    Best-effort application packets riding the overlay's one-hop routes —
    what the routing machinery exists for.  Used by the availability
    experiment comparing direct Internet paths against overlay paths under
    failures. *)

val send_data : t -> src:int -> dst:int -> int
(** Originate a packet at [src] addressed to [dst], forwarded along best
    hops; returns its id. *)

val send_data_direct : t -> src:int -> dst:int -> int
(** Send a packet over the direct virtual link only (no overlay routing):
    the baseline a non-overlay application gets. *)

val data_delivered_at : t -> int -> float option
(** Virtual time a packet reached its destination, if it did. *)

val set_dgram_sink : t -> (now:float -> node:int -> Message.dgram -> unit) -> unit
(** Install the data-plane forwarder: every {!Message.Dgram} arriving at
    any node is handed to [sink] at the transport boundary instead of the
    node's protocol core.  [node] is the receiving port; the datagram's
    addressing lives in the record itself.  [lib/dataplane] installs
    this; at most one sink is active. *)

val send_dgram : t -> src:int -> dst:int -> Message.dgram -> unit
(** Put a user datagram on the virtual wire from [src] to [dst] (one
    transport hop, normal loss/latency sampling and [Data]-class traffic
    accounting).  @raise Invalid_argument out of range. *)
