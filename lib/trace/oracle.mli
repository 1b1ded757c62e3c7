(** The online invariant oracle.

    Subscribed to a {!Collector}, it validates — as events arrive, not in
    a post-mortem — the three properties the paper's argument rests on:

    {ol
    {- {b Grid-quorum intersection.}  Every recommendation a node applies
       was computed at a rendezvous that genuinely serves both endpoints:
       a member of the source's row ∪ column {e and} the destination's
       row ∪ column of the current view's grid, one of the endpoints
       themselves, or a failover server the endpoint explicitly recruited
       (tracked live from [Failover_started]/[Failover_stopped] events,
       with a staleness-window grace after an episode ends, because a
       server legitimately keeps recommending until its copy of the
       client's table ages out).}
    {- {b One-hop optimality.}  Each [Rec_computed] entry — and each
       locally-computed route — matches {!Apor_core.Best_hop} re-run
       against the oracle's own mirror of the rendezvous's table, rebuilt
       event by event from the exact quantized snapshots in [Ls_ingest].
       The protocol's tie-breaking is deterministic, so any divergence is
       a bug, not noise.  Its applied side is {e recommendation
       integrity}: every remote route a node installs ([Rec_applied],
       not local) must be the hop for that destination in one of the last
       two batches its server computed for it ([Rec_computed], same
       view), so a client that rebuilds a delta batch on the wrong base
       is caught even though every batch the server computed was
       optimal.  Reported under [One_hop_optimality], with a detail that
       starts "recommendation integrity".}
    {- {b Traffic conservation.}  Bytes accounted by the transport
       (the engine's {!Apor_sim.Traffic} in emulation) equal bytes seen
       in the trace, per node
       (checked on demand via {!check_traffic} — typically at the end of
       a run, or at checkpoints).}}

    A violation is recorded and, by default, raised immediately as
    {!Violation} with the offending context — the stack then points at
    the protocol action that broke the invariant.

    The oracle must be attached before the cluster starts; it assumes it
    has seen every event.  Mirrors are keyed by view version and rank, so
    runs with membership churn reset cleanly at each view change; the
    failover bookkeeping assumes ranks are stable across the run (true
    for static membership, the configuration all invariant-checked
    experiments use). *)

open Apor_linkstate
open Apor_quorum

type check =
  | Quorum_intersection
  | One_hop_optimality
  | Traffic_conservation
  | Datagram_conservation
      (** Invariant 3b, the data-plane analogue of traffic conservation:
          every user datagram delivered was sent exactly once, at its
          addressed destination, and the data plane's own send/deliver
          counters agree with the trace (checked per event plus on demand
          via {!check_datagrams}). *)
  | View_agreement
      (** Invariant 4, decentralized membership: per-port epoch sequences
          from [View_adopted] events are strictly monotonic (checked
          online; [View_reset] clears a port's tracker after a real
          restart), and every live port converges to the maximum adopted
          epoch within a grace window (checked on demand via
          {!check_view_agreement}). *)

val is_conservation : check -> bool
(** Whether [check] is a conservation check ([Traffic_conservation] or
    [Datagram_conservation]) — the accounting invariants, as opposed to
    the routing and membership ones.  Consumers that count the two
    families apart match here, so a new check kind is classified once. *)

type violation = { time : float; check : check; detail : string }

exception Violation of violation

type t

val create :
  ?raise_on_violation:bool ->
  ?slack_s:float ->
  metric:Metric.t ->
  staleness_s:float ->
  unit ->
  t
(** [metric] and [staleness_s] must match the overlay's configuration
    ([config.metric] and [staleness_windows * routing_interval_s]) or the
    mirror's freshness filter diverges from the routers'.  [slack_s]
    (default 5) pads the post-failover grace window to absorb network
    delay.  [raise_on_violation] defaults to [true]. *)

val attach : t -> Collector.t -> unit

val observe : t -> Collector.timed -> unit
(** The subscription callback, exposed so tests can feed synthetic event
    streams without a collector. *)

val violations : t -> violation list
(** Chronological. *)

val violation_count : t -> int

val violations_outside : t -> windows:(float * float) list -> violation list
(** Violations whose time falls inside none of the (closed) windows —
    the chaos scorer's "out of grace" count: a quorum break {e while} a
    fault it injected is tearing the grid apart is expected, the same
    break in calm air is a bug.  Chronological. *)

val recommendations_checked : t -> int
(** Individual (pair, hop) entries verified for one-hop optimality. *)

val applications_checked : t -> int
(** [Rec_applied] events verified for quorum intersection. *)

val rec_gaps : t -> int
(** [Rec_gap] events seen: recommendation deltas a client could not
    rebuild, each answered with a resync request — the resync rate of
    round two. *)

val check_traffic : t -> n:int -> accounted:(int -> int) -> now:float -> unit
(** Compare per-node byte totals: transport accounting vs. trace, from
    time zero through [now].  [accounted node] must return the bytes the
    transport charged to node [node] over that span — for the simulator,
    {!Apor_sim.Traffic.bytes_in_range} summed over every class with
    [t1 = now + 1].  Records/raises a [Traffic_conservation] violation
    per disagreeing node. *)

val dgrams_sent : t -> int
(** [Dgram_sent] events accepted (unique ids). *)

val dgrams_delivered : t -> int
(** [Dgram_delivered] events accepted (first delivery at the addressed
    destination). *)

val check_datagrams : t -> sent:int -> delivered:int -> now:float -> unit
(** Compare the data plane's own counters against the trace's: [sent] and
    [delivered] must equal the number of [Dgram_sent] / [Dgram_delivered]
    events the oracle accepted.  Records/raises a [Datagram_conservation]
    violation per disagreement. *)

val check_view_agreement : t -> now:float -> grace_s:float -> live:int list -> unit
(** Convergence half of [View_agreement]: among [live] ports, find the
    maximum adopted epoch; if it first appeared more than [grace_s] ago,
    every live port must hold exactly it.  Records/raises one violation
    per lagging (or view-less) port.  A no-op when no live port has
    adopted any view — static-membership runs emit no [View_adopted]
    events at all. *)

val check_grid_cover : Grid.t -> (unit, string) result
(** The static form of invariant 1, used by the property tests: every
    pair of a grid has ≥ 1 connecting rendezvous node, and ≥ 2 common
    rendezvous when the pair shares neither a row nor a column and both
    crossing cells exist (always true on complete grids — Theorem 1; on
    ragged grids a missing crossing cell is made up for by the extra
    assignments, which guarantee cover but not double intersection). *)

val pp_violation : Format.formatter -> violation -> unit
