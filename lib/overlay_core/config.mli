(** Overlay protocol parameters.

    Defaults are the paper's configuration table (Section 5.1):

    {v
    parameter              Full-mesh (RON)   Quorum system
    routing interval (r)   30 s              15 s
    probing interval (p)   30 s              30 s
    #probes for failure    5                 5
    v}

    The quorum router runs at half the full-mesh routing interval because,
    absent rendezvous failures, it needs two rounds to turn fresh probe data
    into routes (Section 4.1, "Comparison to n^2 link-state failover"). *)

open Apor_linkstate

type algorithm = Full_mesh | Quorum

type t = {
  algorithm : algorithm;
  probe_interval_s : float;
  probes_for_failure : int;
  probe_timeout_s : float;
      (** How long to wait for a probe reply before counting a loss. *)
  rapid_probe_interval_s : float;
      (** RON's rapid failure detection: probing cadence after a first
          loss, sized so [probes_for_failure] losses fit within one probing
          interval. *)
  routing_interval_s : float;
  staleness_windows : int;
      (** A rendezvous server uses client tables at most
          [staleness_windows * routing_interval_s] old (the paper uses 3). *)
  remote_failure_factor : float;
      (** A destination with no recommendation for
          [remote_failure_factor * routing_interval_s] seconds is treated
          as suffering a rendezvous failure and triggers failover. *)
  ewma_alpha : float;  (** weight of history in the latency EWMA *)
  metric : Metric.t;
  membership_refresh_s : float;  (** re-registration period at the MS *)
  centralized_membership : bool;
      (** Run membership through the legacy coordinator instead of the
          quorum-replicated protocol ([lib/membership]) — the comparison
          baseline.  Only consulted by runtimes wiring {e dynamic}
          membership; static-view deployments ignore it.  Off by
          default: the overlay has no single point of failure. *)
  relay_link_state : bool;
      (** Footnote 8 of the paper: when the direct link to a rendezvous
          server or client has failed, route the announcement or
          recommendation through a temporary one-hop intermediary instead
          of losing it.  Off by default, as in the deployed prototype. *)
  delta_link_state : bool;
      (** After a node's first announcement to a given rendezvous server,
          push only the entries that changed since the previous epoch
          ({!Apor_linkstate.Wire.Delta}) whenever that is smaller than the
          full [3n]-byte snapshot, falling back to the full form on
          receiver-detected gaps.  On by default. *)
  incremental_rendezvous : bool;
      (** Rendezvous servers keep a per-pair best-hop cache
          ({!Apor_core.Best_hop.Cache}) and repair it in O(changed entries)
          per ingested announcement instead of rescanning all [n]
          candidates per pair each round.  Bit-identical recommendations;
          on by default. *)
}

val ron_default : t
(** The original RON full-mesh router, 30 s routing interval. *)

val quorum_default : t
(** The paper's router, 15 s routing interval. *)

val deploy_local : t
(** {!quorum_default} at the compressed timescales the real-UDP runs use
    (1 s probing, 0.5 s routing, 0.2 s probe timeout, 3 probes for
    failure): the paper's parameter ratios, 30x faster, so a few wall
    seconds on loopback span many probing and routing cycles. *)

val staleness_s : t -> float
(** [staleness_windows * routing_interval_s]: the age past which a
    rendezvous server ignores a client table, and the recommendation age
    the oracle and the scorers accept as fresh. *)

val full_table : t -> t
(** Baseline ablation: disable both delta announcements and the
    incremental best-hop cache (every round sends full snapshots and
    rescans every pair) — the configuration the seed repo shipped with,
    kept as the reference point for the PERFORMANCE.md comparisons. *)

val with_routing_interval : t -> float -> t
(** Ablation helper: change the routing interval, keeping the staleness
    window and failure thresholds proportional. *)

val validate : t -> (unit, string) result
(** Sanity-check parameter relationships (positive intervals, a timeout
    shorter than the rapid cadence, at least one probe for failure). *)
