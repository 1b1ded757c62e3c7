(** The discrete-event engine.

    A single virtual clock, an event queue and a message layer over
    {!Network}.  Protocol code registers one dispatch function; [send]
    samples the network for loss and delay, accounts traffic on both ends
    and schedules the delivery.  Events at equal times run in scheduling
    order, so runs are fully deterministic for a given seed.

    Message deliveries are stored as a typed record — class, endpoints,
    size and payload inline — so the [send] hot path allocates no closure;
    generic [(unit -> unit)] timers remain for node ticks.  The queue
    itself is an {!Apor_util.Heap}, ordered by (time, scheduling order).

    The engine is polymorphic in the protocol's message type: the overlay
    instantiates ['msg] with its own variant. *)

type 'msg t

val create : network:Network.t -> unit -> 'msg t
(** Fresh engine at time 0 with no handler installed. *)

val network : 'msg t -> Network.t

val traffic : 'msg t -> Traffic.t

val now : 'msg t -> float
(** Virtual time in seconds. *)

val set_handler : 'msg t -> (dst:int -> src:int -> 'msg -> unit) -> unit
(** Install the delivery dispatch.  Messages delivered before a handler is
    installed raise [Failure] — a protocol wiring bug. *)

type tap = {
  on_send : cls:Traffic.cls -> src:int -> dst:int -> bytes:int -> unit;
  on_deliver : cls:Traffic.cls -> src:int -> dst:int -> bytes:int -> unit;
  on_drop : cls:Traffic.cls -> src:int -> dst:int -> bytes:int -> unit;
}
(** Packet-level observation hooks.  [on_send] fires for every transmitted
    packet, then exactly one of [on_deliver] (at the arrival time, before
    the handler) or [on_drop] (immediately — the engine knows the fate at
    send time).  The engine stays agnostic of what observers do; the trace
    collector plugs in here without the engine depending on it. *)

val set_tap : 'msg t -> tap option -> unit
(** Install or remove the tap.  [None] (the default) costs nothing on the
    send path. *)

val schedule : 'msg t -> delay:float -> (unit -> unit) -> unit
(** Run a callback [delay] seconds from now.
    @raise Invalid_argument on negative or NaN delay. *)

val schedule_at : 'msg t -> time:float -> (unit -> unit) -> unit
(** Run a callback at an absolute virtual time (clamped to now). *)

val send : 'msg t -> cls:Traffic.cls -> src:int -> dst:int -> bytes:int -> 'msg -> unit
(** Transmit one packet.  Outgoing bytes are accounted immediately at
    [src]; if the network delivers, incoming bytes are accounted at [dst]
    on arrival and the handler runs.  Dropped packets simply vanish, as on
    the real Internet (all overlay messages are UDP-like). *)

val run_until : 'msg t -> float -> unit
(** Process every event with time <= the given horizon; afterwards [now]
    equals the horizon. *)

val step : 'msg t -> bool
(** Process one event; [false] when the queue is empty. *)

val pending : 'msg t -> int
(** Number of queued events. *)

val queue_words : 'msg t -> int
(** Words held by the pending events: per event its three heap array
    slots (key, sequence number, value), then a delivery's record and
    every word its message reaches (a payload shared with a node's state
    counts again here), or a timer's constructor and closure block, not
    what the closure captures.  Walks the whole queue: for memory probes,
    not the event loop. *)

type stats = {
  events : int;  (** Events processed (popped and executed). *)
  sends : int;  (** Packets transmitted via [send]. *)
  delivers : int;  (** Packets that reached their destination. *)
  drops : int;  (** Packets lost in the network. *)
  max_pending : int;  (** Peak size of the event queue. *)
}
(** Lifetime profiling counters; cheap enough to maintain unconditionally. *)

val stats : 'msg t -> stats
(** Snapshot of the counters so far. *)
