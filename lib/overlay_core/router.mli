(** The quorum router: the paper's two-round protocol run continuously on
    live measurements, with the failure handling of Section 4.

    Every routing interval the router
    + announces its current link-state snapshot to its rendezvous servers
      (grid row/column plus any failover servers in use), and
    + in its rendezvous-server role, sends each client with a fresh table
      (received within [staleness_windows * r]) best-hop recommendations
      covering every other fresh client — under [delta_link_state], as
      the changes since the batch it last sent that client
      ({!Apor_linkstate.Rec_batch}) — and
    + computes routes locally for destinations whose tables it holds
      (its own clients — Section 4.2's redundancy), and
    + runs failover maintenance: destinations whose default rendezvous
      servers all appear failed (proximally dead, or silent for
      [remote_failure_factor * r]) get a replacement server drawn uniformly
      from the destination's row/column pool, with the dead-destination
      check gating repeated failover.

    All routing state lives in the rank space of the current membership
    view; messages from other views are discarded.

    Representation: besides the link-state table and the round-two cache,
    the per-view state is flat arrays with no per-entry allocation.  Each
    destination's {e connecting servers} — the common rendezvous servers
    of the pair, plus the destination itself when it serves this node —
    form one slice of an int array in CSR layout (an offsets array of
    length m + 1), ~4m slots in all, built from the grid's closed form on
    the first use in a view.  A float array parallel to it holds when
    each slot's server last recommended that destination; only the pairs
    outside the slices (failover servers, current and past) sit in a
    small table keyed by server and destination.  A learned route is a
    hop rank ([-1] for none) and a time in two arrays of m, carried
    across a view change through the rank map.

    Sans-IO: the router performs no IO and never reads a clock.  Outbound
    messages and timer (re)arms leave through the {!effects} record, and
    every entry point that depends on time takes the current instant as
    [~now].  The hosting runtime decides what "send" and "set a timer"
    mean (simulator events, UDP datagrams, …) and must call
    {!on_tick_timer} when the timer armed via [set_tick_timer] fires. *)

open Apor_util

type effects = {
  send : dst_port:int -> Message.t -> unit;
  set_tick_timer : delay:float -> unit;
}

type t

val create :
  config:Config.t ->
  self_port:int ->
  rng:Rng.t ->
  monitor:Monitor.t ->
  ?trace:(Apor_trace.Event.t -> unit) ->
  effects ->
  t
(** With [trace], the router emits protocol-level events — link-state
    pushes and ingests, recommendations computed/applied, failover episode
    transitions, view installs — at the moment each happens.  Without it
    (the default) emission sites compile to a field test: no closures, no
    events, no allocation. *)

val start : t -> unit
(** Begin the routing loop: arms the first tick after a random phase
    within one interval.  Idempotent. *)

val on_tick_timer : t -> now:float -> unit
(** The tick timer fired: run one routing interval (announce, recommend,
    failover maintenance) and re-arm the timer one interval out. *)

val set_view : t -> now:float -> View.t -> unit
(** Install a membership view: rebuild the grid and drop routing state
    from the previous view.  No-op when the version is unchanged. *)

val view : t -> View.t option

val handle_message : t -> now:float -> src_port:int -> Message.t -> unit
(** Feed in the routing messages — link-state announcements and their
    resync requests, recommendation batches and theirs; others are
    ignored. *)

val receive_recommendation :
  t ->
  now:float ->
  src_port:int ->
  ?surface:(Nodeid.t -> Nodeid.t -> unit) ->
  Message.t ->
  unit
(** Apply a [Recommend] or [Recommend_delta] from the server at
    [src_port]: a full batch's entries; for a delta, the full batch
    rebuilt from the one held from that server, or only its changed pairs
    when that base is missing (a gap, answered with a [Rec_resync]).
    Once all are applied, [surface dst hop] is called on each
    [(destination, hop)] pair, in order.  Nothing happens for a message
    of another view, a stale or malformed delta, or any other message. *)

val on_peer_death : t -> now:float -> port:int -> unit
(** Proximal-failure notification from the monitor: runs an immediate
    failover scan instead of waiting for the next tick. *)

val on_peer_recovery : t -> port:int -> unit

(** {1 Queries (used by applications and the metrics samplers)} *)

val best_hop_port : t -> now:float -> dst_port:int -> int option
(** The overlay's answer to "how do I reach [dst] right now": the freshest
    recommendation if any, else a one-hop through a neighbour whose table
    the node holds (Section 4.2), else the direct path if the monitor
    believes it alive.  Returns the next-hop port ([= dst_port] for the
    direct path); [None] when the destination is unknown or believed
    unreachable. *)

val freshness : t -> now:float -> dst_port:int -> float option
(** Seconds since the last best-hop recommendation for this destination
    was received (Figures 12–14); [None] if none ever arrived. *)

val double_rendezvous_failure_count : t -> now:float -> int
(** Number of destinations currently experiencing failures of {e all}
    their default connecting rendezvous servers (Figure 11). *)

val active_failover_count : t -> int
(** Destinations currently routed around via a failover rendezvous. *)

val rendezvous_server_ports : t -> int list
(** Default plus failover servers the node currently announces to. *)

val suspects_dead : t -> dst_port:int -> bool
(** Whether the dead-destination check has currently concluded that [dst]
    itself has failed (stops failover attempts for it). *)

type state_words = {
  table_words : int;  (** the link-state table, rows included *)
  cache_words : int;  (** the round-two cache beyond the table's rows *)
  rendezvous_words : int;
      (** connecting slices, their recommendation times and the overflow
          table of failover pairs *)
  routes_words : int;  (** learned routes and per-destination recommendation times *)
  batch_words : int;
      (** recommendation batches at wire width: the last one sent to each
          client and the last one held from each server *)
}

val state_words : t -> state_words
(** [Obj.reachable_words] of each part of the current view's state (all
    zero outside a view).  Walks the whole state: for tests and memory
    probes, not the data path. *)
