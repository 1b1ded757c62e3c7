(** The data plane, written once over a {!Host}.

    Attaching installs the host's datagram sink and arms the workload's
    arrival timers on its clock; traffic then flows whenever the runtime
    runs.  Each datagram is originated along the source's {e current}
    recommendation — direct, or via the advised one-hop intermediate —
    and relayed once, at the intermediate, straight to the destination
    (the paper's §4.2 data path); a packet relayed past
    {!Packet.max_hops} is dropped.  A destination counts each id once:
    a duplicated frame, a datagram its flow already timed out on, or an
    unknown id is ignored.  A packet naming a port outside [\[0, n)] is
    rejected (the sink returns [false]) before it is read.

    The open loop keeps each arrival's due time: the next arrival is due
    an inter-arrival draw after the previous {e due} time, whenever its
    timer actually fired.  The closed loop is {!Flows}.  Datagram
    lifecycle events ([Dgram_sent] …) feed the oracle's
    datagram-conservation check. *)

type t

val attach :
  Host.t ->
  spec:Workload.spec ->
  seed:int ->
  metrics:Metrics.t ->
  ?trace:Apor_trace.Collector.t ->
  ?start_at:float ->
  unit ->
  t
(** Install the sink (replacing any earlier driver's: that driver's
    in-flight ids are then unknown here and ignored) and start the
    workload at [start_at] on the host clock (default: now).  [seed]
    derives the workload's private RNG stream (label
    ["dataplane.workload"]) — independent of the runtime's node
    streams, so attaching a workload never perturbs protocol draws. *)

val sent : t -> int
(** Datagrams originated — the data plane's own count, compared against
    the trace by {!Apor_trace.Oracle.check_datagrams}. *)

val delivered : t -> int

val stop : t -> unit
(** Stop originating new datagrams (in-flight ones still deliver). *)
