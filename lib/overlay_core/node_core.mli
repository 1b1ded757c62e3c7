(** One overlay node as a pure protocol state machine (sans-IO).

    A node is the composition of the link {!Monitor}, a {!Router} (quorum
    or full-mesh) and the membership client.  This module owns that
    composition and exposes exactly one way to make it do anything:

    {[ val handle : t -> now:float -> input -> output list ]}

    Inputs are everything that can happen to a node — a datagram arrived,
    a timer fired, the application wants a packet sent, the transport
    reports a link up or down.  Outputs are everything the node wants done
    — datagrams to send, timers to arm, packets to deliver upward, trace
    events — returned as data, in the exact order the protocol decided
    them, and never performed here.  The core reads no clock (time is the
    [~now] argument), touches no socket and knows nothing about the
    simulator: the same machine runs unchanged under
    {!Apor_overlay.Sim_runtime} (discrete-event simulation) and
    [Apor_deploy.Udp_runtime] (real UDP sockets).

    Determinism: given equal construction parameters and the same
    sequence of [(now, input)] calls, [handle] returns the same outputs —
    the only randomness is the [rng] passed at creation, split
    deterministically by label.  The driving runtime must feed timer
    outputs back as [Tick] inputs with the timer's payload intact, at
    the absolute time the output names.  Timers cannot be cancelled: a
    timer that has lost its purpose still fires, and the component it
    belongs to finds nothing to do.  The link monitor keeps its whole
    probe schedule itself and arms one [Monitor_wakeup] at a time (see
    {!Monitor}), so a wakeup whose due events were cancelled or moved
    is recognized by the monitor's own state, not by its payload.

    [handle] is not re-entrant: feed inputs one at a time. *)

open Apor_util

type timer =
  | Monitor_wakeup
      (** The link monitor's next due probe or probe timeout, for all
          peers at once. *)
  | Router_tick  (** The routing interval. *)
  | Join_retry  (** Membership join retry / lease refresh (coordinator). *)
  | Member_timer of Apor_membership.Membership_core.timer
      (** A decentralized-membership timer (gossip, join retry, quorum
          write check), embedded as data like every other timer. *)

type input =
  | Start  (** Begin probing/routing and (if configured) join. *)
  | Install_view of View.t
      (** Static-membership entry point: install a view directly, as if
          the coordinator had pushed it. *)
  | Deliver of { src_port : int; msg : Message.t }  (** A datagram arrived. *)
  | Tick of timer  (** A previously armed timer fired. *)
  | Leave  (** Announce departure to the coordinator. *)
  | Link_report of { peer : int; up : bool }
      (** A transport-level liveness verdict (e.g. ICMP errors), imposed
          on the monitor. *)

type output =
  | Send of { dst_port : int; msg : Message.t }
  | Set_timer of { timer : timer; at : float }
      (** Arm a timer at absolute time [at], never before the input's
          [now]; when it fires, feed [Tick timer] back in.  A relative
          delay [d] becomes [at = now +. d], the same float a
          discrete-event engine computes from [clock +. d]. *)
  | Recommend of { server_port : int; dst_port : int; hop_port : int }
      (** A rendezvous recommendation was received and applied — surfaced
          per entry, in port space, so transports can track routing
          coverage without a trace attached. *)
  | Trace of Apor_trace.Event.t
      (** Protocol-level trace event (only when created with
          [~trace:true]). *)

type t

val create :
  config:Config.t ->
  port:int ->
  capacity:int ->
  ?coordinator_port:int ->
  ?membership:Apor_membership.Membership_core.role ->
  ?trace:bool ->
  rng:Rng.t ->
  unit ->
  t
(** [capacity] is the largest port + 1 ever addressable (sizes the
    monitor).  With a [coordinator_port], [Start] runs the centralized
    join protocol; with [membership], the decentralized quorum protocol
    ([lib/membership]) — genesis members install their view at [Start],
    joiners solicit admission from their contacts (the two options are
    mutually exclusive).  With neither, the node waits for
    [Install_view].  [trace] (default false) turns on {!output.Trace}
    emission; off, the emission sites compile to a field test and
    allocate nothing. *)

val handle : t -> now:float -> input -> output list
(** The single entry point: apply one input at time [now], return the
    effects in decision order.  [now] must not decrease across calls. *)

(** {1 Queries (pure reads; no effects)} *)

val port : t -> int

val current_view : t -> View.t option

val monitor : t -> Monitor.t

val quorum_router : t -> Router.t option
(** The quorum router, when [config.algorithm = Quorum]. *)

val best_hop : t -> now:float -> dst_port:int -> int option
(** Next-hop port for reaching [dst] ([= dst] for the direct path). *)

val freshness : t -> now:float -> dst_port:int -> float option

val double_rendezvous_failure_count : t -> now:float -> int
(** 0 for the full-mesh algorithm, which has no rendezvous to fail. *)

(** {1 Structural helpers (tests, golden-trace tooling)} *)

val equal_output : output -> output -> bool
val pp_timer : Format.formatter -> timer -> unit
val pp_input : Format.formatter -> input -> unit
val pp_output : Format.formatter -> output -> unit
