(** Derived views over a collected trace.

    Everything here folds over the collector's retained ring (size the
    ring for the window you mean to analyse), except {!Acc}, which can
    also follow the live stream; nothing mutates the trace.
    These are the counters the benches used to re-derive by hand:
    per-node message volume, recommendation propagation latency, and
    failover episode timelines. *)


val per_node_messages :
  ?cls:Apor_util.Msgclass.t -> ?t0:float -> ?t1:float -> Collector.t -> n:int -> (int * int) array
(** [(sent, received)] packet counts per node over engine events,
    optionally restricted to one traffic class and a closed time
    window.  Drops count as sent, not received — exactly like the
    engine's byte accounting. *)

val traced_bytes : ?t0:float -> ?t1:float -> Collector.t -> n:int -> int array
(** Bytes per node, incoming and outgoing summed — the trace-side copy
    of the quantity {!Apor_sim.Traffic} accumulates. *)

type failover_span = {
  node : int;
  dst : int;
  server : int;
  started : float;
  ended : float option;  (** [None]: still open at the end of the trace *)
}

(** The pairing rules behind {!recommendation_latencies} and
    {!failover_spans}, fed one event at a time: the folds below run it
    over the retained ring, and a consumer that needs the whole run (a
    chaos scenario outlives its ring) subscribes it with
    [Collector.subscribe tr (Acc.observe acc)]. *)
module Acc : sig
  type t

  val create : unit -> t

  val observe : t -> Collector.timed -> unit

  val rec_latencies : t -> float list
  (** {!recommendation_latencies} over every event observed.
      Chronological. *)

  val failover_durations : t -> float list
  (** Length of each closed failover span, in the order the spans
      closed (not the order they started); open spans are left out. *)

  val failovers_started : t -> int
  (** [Failover_started] events observed, server switches included. *)
end

val recommendation_latencies : ?t0:float -> ?t1:float -> Collector.t -> float list
(** One sample per delivered round-two message: virtual seconds from
    [Rec_computed] at the rendezvous to the matching [Rec_applied] batch
    at the client (locally-computed routes are excluded).  Chronological. *)

val failover_spans : ?t0:float -> ?t1:float -> Collector.t -> failover_span list
(** Failover episodes ordered by start time, including server switches
    within one episode (each server gets its own span).  A span is kept
    when it overlaps the [t0, t1] window. *)
