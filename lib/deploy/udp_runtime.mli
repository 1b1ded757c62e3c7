(** The real-transport runtime: N {!Apor_overlay_core.Node_core} machines
    in one process, each bound to its own loopback UDP socket, driven by a
    select loop, a timer heap and the monotonic {!Clock}.

    This is the deployment counterpart of {!Apor_overlay.Sim_runtime}:
    the protocol code is byte-for-byte the same state machine — only the
    interpretation of its outputs changes.  Logical overlay port [i] maps
    to UDP port [base_port + i] on 127.0.0.1; frames carry the logical
    source port ({!Frame}), so overlay addressing is independent of the
    transport's.

    Outbound frames go through a per-peer FIFO send queue: a send that
    the kernel refuses transiently ([EAGAIN]/[ENOBUFS]) stays queued and
    is retried each loop turn, up to a bounded number of attempts;
    [ECONNREFUSED] (the peer's socket is gone) drops the frame and feeds
    a [Link_report] down verdict into the core, withdrawn on the next
    successful send.

    Membership is static by default: {!start} dispatches [Start] and
    installs the full view on every node, the steady-state configuration
    of the paper's measurements.  With [`Dynamic initial] the first
    [initial] nodes boot as genesis members of the decentralized
    quorum-replicated protocol ([lib/membership]) and the rest join live
    via {!join_node}; restarts rejoin through the same protocol instead
    of a view install.

    {b Fault injection} (the [Apor_chaos] UDP injector drives these):
    {!kill_node}/{!restart_node} crash and revive individual node loops —
    a kill closes the socket (peers see [ECONNREFUSED], exactly the
    evidence a crashed process leaves) and silences the node's timers via
    an incarnation counter; a restart rebinds the port and boots a {e
    fresh} core that rejoins through [Start]/[Install_view].
    {!set_fault_injector} interposes on every outbound frame at the
    {!Frame} layer: drop, corrupt (one header byte flipped — receivers
    reject it, or discard it on the out-of-range source-port guard),
    duplicate, or delay by a given number of seconds (reordering). *)

type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable send_retries : int;
  mutable frames_dropped : int;
      (** Every frame that died in the transport: retry budget exhausted,
          peer socket gone, undecodable on arrival, or injected drop. *)
  mutable data_frames_sent : int;  (** user datagrams handed to {!send_data} *)
  mutable data_batches_sent : int;  (** UDP datagrams carrying data batches *)
  mutable data_frames_dropped : int;
      (** data frames eaten by the injector or socket backpressure *)
  mutable data_bytes_received : int;  (** valid data-batch bytes consumed by the sink *)
}

type link_stats = {
  mutable sent : int;  (** datagrams handed to the kernel on this link *)
  mutable retries : int;  (** transient kernel refusals ([EAGAIN]/[ENOBUFS]) *)
  mutable dropped_overflow : int;  (** retry budget exhausted *)
  mutable dropped_refused : int;  (** peer socket gone ([ECONNREFUSED]) *)
  mutable dropped_injected : int;  (** eaten by the fault injector *)
}
(** Per-directed-link (sender-side) counters, so resilience scoring can
    attribute real-socket losses instead of under-counting them in the
    global {!stats} sums. *)

type frame_fate = Pass | Drop | Corrupt | Duplicate | Delay of float

type membership = [ `Static | `Dynamic of int ]
(** [`Dynamic initial]: ports [0 .. initial-1] are genesis members of the
    decentralized membership protocol, the rest pending joiners admitted
    on {!join_node}.  The centralized coordinator baseline
    ([Cluster.Coordinator]) is simulator-only: it needs a
    coordinator endpoint this runtime does not host. *)

type t

val check_layout : n:int -> base_port:int -> (unit, string) result
(** Whether [n] nodes fit the runtime: at least two, and node [i]'s UDP
    port [base_port + i] inside [[1, 65535]] for every node — the check
    {!create} makes before binding anything, exposed so a command line
    can report a usage error first. *)

val create :
  config:Apor_overlay_core.Config.t ->
  n:int ->
  ?membership:membership ->
  ?base_port:int ->
  ?trace:Apor_trace.Collector.t ->
  seed:int ->
  unit ->
  t
(** Binds [n] nonblocking UDP sockets on [base_port ..] (default 9000)
    and builds the node cores (deterministic per [seed], same RNG
    splitting as the simulator's cluster).  A [trace] collector is
    pointed at the runtime's clock and receives transport Send/Deliver
    events plus every node's protocol events — the same stream shape the
    simulator produces, so {!Apor_trace.Oracle} and [Trace_report] work
    unchanged.  @raise Unix.Unix_error when sockets are unavailable (all
    already-bound sockets are closed first).
    @raise Invalid_argument before binding anything when {!check_layout}
    fails ([n < 2], [base_port < 1] or [base_port + n - 1 > 65535]). *)

val start : t -> unit

val run : t -> duration:float -> unit
(** Drive the select loop for [duration] wall-clock seconds: fire due
    timers, flush send queues, deliver received frames. *)

val now : t -> float
(** Seconds since [create] on the runtime's clock. *)

val n : t -> int
(** The node count the runtime was created with. *)

val node_core : t -> int -> Apor_overlay_core.Node_core.t
(** The [i]-th node's state machine, for queries.  After a restart this
    is the {e current} incarnation's core. *)

val coverage : t -> int * int
(** [(covered, total)] ordered pairs [(i, j)], [i <> j], for which node
    [i] has received and applied a rendezvous recommendation toward
    [j].  A restarted node's coverage starts over. *)

val accounted_bytes : t -> int -> int
(** Protocol-level bytes (in + out, {!Apor_overlay_core.Message.size_bytes})
    charged to node [i] — the transport side of the oracle's traffic
    conservation check.  Cumulative across restarts. *)

val stats : t -> stats

val link_stats : t -> src:int -> dst:int -> link_stats
(** Snapshot of the sender-side counters for the directed link
    [src -> dst].  @raise Invalid_argument out of range. *)

val undecodable : t -> int -> int
(** Received frames node [i] rejected (bad magic/version/length, source
    port outside the overlay, or payload decode failure). *)

(** {1 Fault injection} *)

val kill_node : t -> int -> unit
(** Crash node [i]: close its socket, clear its send queues and silence
    its timers.  Idempotent. *)

val restart_node : t -> int -> unit
(** Revive a killed node [i]: rebind its UDP port and boot a fresh core
    (deterministic per [(seed, port, incarnation)]) that rejoins — via
    [Start] + [Install_view] under static membership, or as a fresh
    joiner (plus a [View_reset] trace event) under [`Dynamic].  No-op
    when the node is alive. *)

val join_node : t -> int -> unit
(** Wake pending joiner [i]: it solicits admission from its contacts
    until a quorum-written view containing it arrives.  Idempotent; a
    no-op on a killed node.
    @raise Invalid_argument under [`Static], or when [i] is not in
    [\[initial, n)]. *)

val node_alive : t -> int -> bool

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Arm a runtime-level timer (not tied to any node incarnation) — the
    data-plane drivers' arrival and timeout clocks. *)

val pending_timers : t -> int
(** Timers armed and not yet fired, node timers included. *)

(** {1 Data plane}

    Transport hooks for [lib/dataplane]: user datagram frames are packed
    back to back into one reused per-link buffer ({!data_mtu} bytes) and
    shipped as a single UDP datagram per loop turn — zero-copy on the
    send path, one [sendto] for many frames.  Data traffic is
    best-effort end to end: backpressure or a dead peer drops the batch
    (counted, never retried).  A receiving socket classifies datagrams
    by first byte: the control {!Frame} magic goes to the protocol core,
    anything else to the data sink. *)

val data_mtu : int
(** Batch buffer capacity; also the largest single frame {!send_data}
    accepts. *)

val send_data : t -> src:int -> dst:int -> size:int -> fill:(bytes -> int -> unit) -> unit
(** Append one [size]-byte data frame to the [src -> dst] batch;
    [fill buf pos] must write exactly [size] bytes at [pos].  The sender
    is charged and a [Data]-class Send traced before the fault injector's
    verdict, mirroring control frames; [fill] may run more than once
    (frame duplication) — it must be a pure encoder.
    @raise Invalid_argument out of range or [size] outside (0, mtu]. *)

val set_data_sink :
  t -> (now:float -> node:int -> wire_src:int -> buf:bytes -> len:int -> int) option -> unit
(** Install the data-plane receiver.  Called once per arriving non-control
    datagram with the receive buffer (reused — parse in place, do not
    retain), the receiving node, and [wire_src] (the sending node derived
    from the source UDP port, [-1] when unattributable).  Must return how
    many leading bytes were valid data frames; only those are accounted
    and traced as a [Data]-class Deliver, the remainder counts as
    undecodable. *)

val set_fault_injector :
  t -> (now:float -> src:int -> dst:int -> frame_fate) option -> unit
(** Interpose on outbound frames.  The verdict applies after the send is
    accounted and traced (like the simulator, where a lost packet still
    charges its sender); [Delay d] re-enqueues the frame [d] seconds
    later, letting younger frames overtake it.  [None] removes the hook. *)

val close : t -> unit
