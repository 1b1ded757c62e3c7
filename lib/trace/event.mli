(** Typed trace events.

    Two layers share one stream.  {e Engine-level} events ([Send],
    [Deliver], [Drop]) describe every packet the simulator moves and are
    addressed in {e port} space.  {e Protocol-level} events describe what
    the quorum router did with those packets — link-state announcements,
    rendezvous recommendations, failover episodes — and are addressed in
    {e rank} space (the member's index in the current view), because that
    is the space the grid and the paper's invariants live in.  Under
    static membership ports and ranks coincide.

    Events are plain immutable values; emitting one costs a single
    allocation, and nothing at all when tracing is disabled (emission
    sites are guarded). *)

open Apor_util
open Apor_linkstate

module Kind : sig
  type t =
    | Send
    | Deliver
    | Drop
    | Ls_push
    | Ls_ingest
    | Ls_gap
    | Rec_computed
    | Rec_applied
    | Rec_gap
    | Failover_started
    | Failover_stopped
    | View_installed
    | View_adopted
    | View_reset
    | Join_requested
    | Join_admitted
    | Dgram_sent
    | Dgram_forwarded
    | Dgram_delivered
    | Dgram_dropped

  val all : t list

  val engine : t list
  (** [Send], [Deliver], [Drop] — the high-volume layer. *)

  val protocol : t list
  (** The quorum-routing layer — what the invariant oracle's first two
      checks consume. *)

  val dataplane : t list
  (** User-datagram lifecycle events emitted by [lib/dataplane] — what
      the oracle's datagram-conservation check consumes. *)

  val to_string : t -> string
end

type stop_reason =
  | Recovered         (** a default rendezvous for the pair works again *)
  | Exhausted         (** candidate pool empty but the destination looks alive *)
  | Destination_dead  (** Section 4.1 liveness check concluded the destination is down *)

type t =
  | Send of { cls : Apor_util.Msgclass.t; src : int; dst : int; bytes : int }
      (** A packet left [src] (accounted whether or not it survives). *)
  | Deliver of { cls : Apor_util.Msgclass.t; src : int; dst : int; bytes : int }
      (** The packet arrived at [dst] and is about to be dispatched. *)
  | Drop of { cls : Apor_util.Msgclass.t; src : int; dst : int; bytes : int }
      (** The network ate the packet at send time. *)
  | Ls_push of { node : Nodeid.t; server : Nodeid.t; view : int }
      (** Round one: [node] announced its link-state table to [server]
          (default or failover rendezvous alike). *)
  | Ls_ingest of { node : Nodeid.t; owner : Nodeid.t; view : int; snapshot : Snapshot.t }
      (** [node] stored [owner]'s snapshot in its table — either a received
          announcement or, when [owner = node], its own measurement row at
          the top of a routing tick.  Carries the exact quantized snapshot
          so the oracle can mirror every table. *)
  | Ls_gap of { node : Nodeid.t; owner : Nodeid.t; view : int; epoch : int }
      (** [node] received a delta from [owner] stamped [epoch] but does not
          hold the preceding epoch (lost or reordered announcement); it is
          about to request a full snapshot.  Diagnostic only — the oracle
          ignores it, since nothing was stored. *)
  | Rec_computed of {
      server : Nodeid.t;
      client : Nodeid.t;
      view : int;
      entries : (Nodeid.t * Nodeid.t) list;  (** (destination, best hop) *)
    }
      (** Round two: rendezvous [server] computed and sent its batch of
          one-hop recommendations to [client]. *)
  | Rec_applied of {
      node : Nodeid.t;
      server : Nodeid.t;
      dst : Nodeid.t;
      hop : Nodeid.t;
      view : int;
      local : bool;  (** computed locally from a client's table (Section 4.2) *)
    }
      (** [node] installed [hop] as its current route to [dst], on the
          authority of [server]. *)
  | Rec_gap of { node : Nodeid.t; server : Nodeid.t; view : int; epoch : int }
      (** [node] received a recommendation delta from rendezvous [server]
          stamped [epoch] but does not hold the batch it builds on (a lost
          or reordered batch); it applies the delta's changed pairs and is
          about to request the full batch.  The oracle counts these
          ({!Oracle.rec_gaps}). *)
  | Failover_started of { node : Nodeid.t; dst : Nodeid.t; server : Nodeid.t; view : int }
      (** Double rendezvous failure handling: [node] recruited [server]
          as a failover rendezvous for destination [dst]. *)
  | Failover_stopped of { node : Nodeid.t; dst : Nodeid.t; view : int; reason : stop_reason }
  | View_installed of { node : Nodeid.t; view : int; size : int }
      (** [node]'s router rebuilt its state for a view of [size] members;
          [node] is its rank therein. *)
  | View_adopted of { node : int; epoch : int; size : int }
      (** Decentralized membership: [node] (a {e port} — stable across
          view changes, unlike ranks) installed the view stamped [epoch].
          The oracle's view-agreement invariant consumes these: epochs
          must be strictly monotonic per port, and live ports must
          converge to the maximum epoch within a grace window. *)
  | View_reset of { node : int }
      (** [node] (port) lost its membership state — a real-runtime
          restart — and will re-adopt from the genesis of its new
          incarnation.  Resets the oracle's monotonicity tracker. *)
  | Join_requested of { node : int; contact : int }
      (** Member [contact] received [node]'s join request and queued it
          for the next view change. *)
  | Join_admitted of { sponsor : int; port : int; epoch : int }
      (** [sponsor]'s quorum write committed: [port] is a member as of
          [epoch] and has been sent its join ack. *)
  | Dgram_sent of { id : int; origin : int; dst : int; hop : int option }
      (** The data plane originated user datagram [id] at [origin] for
          [dst]; [hop] is the recommended intermediate it was routed
          through ([None] = sent direct).  Port space. *)
  | Dgram_forwarded of { id : int; node : int; dst : int }
      (** Intermediate [node] relayed the datagram on toward [dst]. *)
  | Dgram_delivered of { id : int; node : int; hops : int }
      (** The datagram reached its destination [node] after [hops]
          overlay forwards (0 = direct). *)
  | Dgram_dropped of { id : int; node : int; reason : string }
      (** The data plane itself discarded the datagram at [node] (hop
          budget exhausted, socket backpressure, …) — network losses show
          up as engine [Drop]s or simply as silence instead. *)

val kind : t -> Kind.t

val involves : t -> int -> bool
(** Whether the event mentions the given node (port for engine events,
    rank for protocol events) in any role. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** The event's fields as a JSON object body (no braces), e.g.
    ["kind":"send","cls":"routing","src":3,"dst":7,"bytes":420] —
    {!Collector} wraps it with time and sequence number into a JSONL
    line.  Snapshots are abbreviated to their live-link count. *)
