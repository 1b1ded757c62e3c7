(** The data plane, written once over a {!Host}.

    {!create} installs the host's datagram sink and forwarder; datagrams
    then leave on demand through {!send}.  {!attach} does the same and
    also arms a workload's arrival timers on the host clock, so traffic
    flows whenever the runtime runs.  Each datagram is originated along
    the source's {e current} recommendation — direct, or via the advised
    one-hop intermediate — and relayed once, at the intermediate,
    straight to the destination (the paper's §4.2 data path); a packet
    relayed past {!Packet.max_hops} is dropped.  A destination counts
    each id once: a duplicated frame, a datagram its flow already timed
    out on, or an unknown id is ignored.  A packet naming a port outside
    [\[0, n)] is rejected (the sink returns [false]) before it is read.

    The open loop keeps each arrival's due time: the next arrival is due
    an inter-arrival draw after the previous {e due} time, whenever its
    timer actually fired.  The closed loop is {!Flows}.  Datagram
    lifecycle events ([Dgram_sent] …) feed the oracle's
    datagram-conservation check. *)

type t

val create : Host.t -> metrics:Metrics.t -> ?trace:Apor_trace.Collector.t -> unit -> t
(** Install the sink (replacing any earlier driver's: that driver's
    in-flight ids are then unknown here and ignored), with no workload:
    nothing is sent but what {!send} originates. *)

val attach :
  Host.t ->
  spec:Workload.spec ->
  seed:int ->
  metrics:Metrics.t ->
  ?trace:Apor_trace.Collector.t ->
  ?start_at:float ->
  unit ->
  t
(** {!create}, then start the workload at [start_at] on the host clock
    (default: now).  [seed] derives the workload's private RNG stream
    (label ["dataplane.workload"]) — independent of the runtime's node
    streams, so attaching a workload never perturbs protocol draws. *)

val send : t -> src:int -> dst:int -> direct:bool -> int
(** Originate one datagram from [src] to [dst] now and return its id.
    It goes along [src]'s current recommendation, or straight to [dst]
    when [direct] is set — the path an application without the overlay
    gets.  {!stop} does not affect it.
    @raise Invalid_argument when a port is outside [\[0, n)] or
    [src = dst]. *)

val in_flight : t -> int -> bool
(** Whether datagram [id] was sent and has neither been delivered,
    dropped at the hop budget, nor abandoned.  The closed loop abandons a
    datagram when its flow times out, the open loop when a later arrival
    finds it older than {!Flows.timeout_s}.  A datagram sent by {!send}
    and lost stays in flight: the driver cannot tell loss from delay. *)

val sent : t -> int
(** Datagrams originated — the data plane's own count, compared against
    the trace by {!Apor_trace.Oracle.check_datagrams}. *)

val delivered : t -> int

val stop : t -> unit
(** Stop originating new datagrams (in-flight ones still deliver). *)
