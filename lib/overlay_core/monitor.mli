(** Link monitoring (Section 5): per-peer probing, EWMA latency, loss
    estimation and failure detection.

    Each peer is probed once per probing interval with an independent
    random phase.  After a first lost probe the cadence switches to the
    rapid interval (RON's rapid failure detection), so
    [probes_for_failure] consecutive losses — the declaration of link
    failure — fit within roughly one probing interval.  A dead peer keeps
    being probed at the normal cadence and is resurrected by any reply.

    Sans-IO: the monitor never reads a clock or touches a transport.
    Time enters as the [~now] argument of the input handlers; everything
    it wants done — probes sent, its wakeup armed, death/recovery
    signalled — leaves through the {!effects} record, which {!Node_core}
    wires to its output buffer.

    {b Representation.}  The state is a set of flat arrays indexed by
    port, sized by [capacity]: one byte of flags (active, alive), and
    per port the consecutive-loss count, the probe sequence number, the
    outstanding probe's send time, the latency and loss EWMAs (unboxed
    floats, NaN before the first sample), the next probe's and the
    outstanding probe's timeout due times, the arm order of the send that
    set them, and the port's slot in an indexed min-heap of active ports
    plus the heap itself — about 10 words per port, with nothing
    allocated per peer or per probe.

    {b One wakeup.}  The monitor keeps a whole node's probe schedule and
    asks its host for a single wakeup at its earliest due time, not one
    timer per peer.  A wakeup is armed only when the earliest due time
    moves before every wakeup already armed, and its time is that due
    time exactly.  {!on_wakeup} then processes every event due at or
    before [now] in (due time, arm order) and re-arms; a wakeup whose
    events were cancelled (a reply, a deactivation) or moved (a rapid
    re-probe) finds nothing due and does nothing unless the schedule
    needs a new one.  Within one send, the timeout is armed before the
    next probe, so on equal due times the timeout fires first — the
    order the engine gave the per-peer timers this replaces.

    The monitor works in {e port} space and survives membership changes;
    only the set of actively probed peers is updated. *)

open Apor_util
open Apor_linkstate

type effects = {
  send_probe : dst:int -> seq:int -> unit;
  set_wakeup : at:float -> unit;
      (** Arm a wakeup at absolute time [at] that must come back via
          {!on_wakeup}. *)
  on_peer_death : int -> unit;   (** proximal failure declared *)
  on_peer_recovery : int -> unit;
}

type t

val create : config:Config.t -> self:int -> capacity:int -> rng:Rng.t -> effects -> t
(** [capacity] bounds the port numbers that may ever be probed. *)

val set_peers : t -> now:float -> int list -> unit
(** Start probing any new peers (first probe at a random phase within one
    probing interval of [now]) and stop probing removed ones.  Latency
    history of re-added peers is retained. *)

val peers : t -> int list

val on_wakeup : t -> now:float -> unit
(** A wakeup armed via [set_wakeup] fired: send every probe due by [now],
    count every timeout due by [now] whose probe is still outstanding
    (possibly declaring death or switching to the rapid cadence), then
    arm the next wakeup if none is armed early enough. *)

val next_due : t -> float option
(** The earliest due probe or probe timeout, [None] when no peer is
    probed.  Every wakeup is armed at the value this returns at that
    moment. *)

val handle_reply : t -> now:float -> src:int -> seq:int -> unit
(** Feed a probe reply back in; unsolicited or duplicate replies are
    ignored. *)

val force_status : t -> int -> up:bool -> unit
(** Impose an external liveness verdict (transport-level error reports):
    flips [alive] and fires the death/recovery effect when it changes
    the current verdict. *)

val alive : t -> int -> bool
(** Current liveness verdict for a peer ([true] until proven dead). *)

val latency_ms : t -> int -> float option
(** EWMA latency, [None] before the first sample.  A sample [x] folds in
    as [alpha *. old +. (1. -. alpha) *. x]; the first one is adopted. *)

val loss : t -> int -> float
(** EWMA loss estimate in [0, 1] ([0.] before the first sample). *)

val entry_for : t -> int -> Entry.t
(** The link-state entry describing the link to a peer: dead when the
    peer is dead {e or never measured}, otherwise the current EWMA
    latency and loss. *)

val concurrent_failures : t -> int
(** Number of actively probed peers currently considered dead — the
    quantity Figure 8 plots per node.  Peers never yet measured don't
    count: the paper counts probed-and-lost destinations. *)

val state_words : t -> int
(** [Obj.reachable_words] of the per-port arrays and the wakeup stack —
    the monitor's state without its config and effects.  For tests and
    memory probes, not the data path. *)
