(** Quorum-replicated membership without a coordinator.

    Sans-IO, like [Overlay_core.Node_core]: a pure
    [handle : t -> now:float -> input -> output list] with timers as
    data, so the simulator and the UDP runtime drive the identical state
    machine and sim traces stay byte-replayable.

    {2 Protocol}

    Every member holds the current {!View.t}, whose version is a
    ballot-style {e epoch}: [(counter lsl 16) lor sponsor_port].  Epochs
    are totally ordered and unique across concurrent sponsors; a node
    only ever adopts a strictly greater epoch, which makes per-node epoch
    sequences strictly monotonic — the oracle's view-agreement invariant.

    A {e joiner} bootstraps by sending [Join_req] to any contact,
    retrying round-robin until a view containing it arrives.  The
    contacted member becomes the {e sponsor}: it orders its pending
    joins/leaves/crash-detections canonically (sorted ports), derives the
    next view, installs it locally, and performs the {e quorum write} —
    a [View_announce] to its own row/column in the {e new} grid.  Each
    adopter echoes the epoch back ([Epoch_resync]); at a majority of
    echoes the sponsor commits: [Join_ack] to each joiner, full announce
    to the remaining members.  Lost writes heal by gossip: every member
    periodically sends its epoch digest to its row/column, and any
    mismatch triggers a push of the newer view (full, or a compact
    [View_delta] when the receiver is exactly one epoch behind — the
    [Ls_resync] idiom).

    Crash eviction is deliberately lazy (only after
    [params.member_timeout_s] of monitor-reported silence) so transient
    faults never mutate membership; routing already masks dead members
    via failover rendezvous. *)

type params = {
  gossip_interval_s : float;  (** anti-entropy digest period *)
  join_retry_s : float;  (** joiner's [Join_req] retry period *)
  propose_timeout_s : float;  (** quorum-write retransmission period *)
  member_timeout_s : float;  (** monitor-silence before eviction *)
}

val derive : routing_interval_s:float -> refresh_s:float -> params
(** The standard derivation both runtimes use: gossip at twice the
    routing interval, retries at the routing interval, eviction at the
    membership refresh period. *)

type role =
  | Member of View.t  (** starts holding this (genesis) view *)
  | Joiner of { contacts : int list }  (** bootstraps via these ports *)

type timer = Gossip | Join_retry | Propose_check of { epoch : int }

type input =
  | Start
  | Deliver of { src_port : int; msg : Wire.t }
  | Tick of timer
  | Peer_report of { port : int; up : bool }
      (** monitor verdicts feed lazy crash eviction *)
  | Leave

type output =
  | Send of { dst_port : int; msg : Wire.t }
  | Set_timer of { timer : timer; delay : float }
  | Install of View.t
      (** hand the new view to the router (grid rebuild, fresh routing state) *)
  | Trace of Apor_trace.Event.t

type t

val genesis_epoch : int
(** [(1 lsl 16)]: counter 1, sponsor 0. *)

val genesis_view : members:int list -> View.t

val next_epoch : prev:int -> sponsor:int -> int
(** @raise Invalid_argument on counter overflow (> 16 bits) or a sponsor
    port exceeding 16 bits. *)

val create : params:params -> port:int -> role:role -> ?trace:bool -> unit -> t

val handle : t -> now:float -> input -> output list
(** Pure with respect to IO: all effects are returned, in deterministic
    order. *)

val port : t -> int

val current_view : t -> View.t option

val epoch : t -> int
(** [-1] before any view is held. *)

val is_member : t -> bool
(** Whether the node's current view contains its own port. *)

val pp_timer : Format.formatter -> timer -> unit
