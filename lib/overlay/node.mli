(** One overlay node: the sans-IO {!Node_core} plus the {!Runtime}
    driving it, behind the node-object API the benches and tests use.

    This is a convenience wrapper — the state machine itself lives in
    {!Node_core} and performs no IO.  {!Cluster} builds each runtime with
    {!Sim_runtime.create} and wraps it via {!of_runtime}.  Port numbers
    are the node's addresses; rank-space bookkeeping is internal to the
    router. *)

open Apor_overlay_core

type t

val of_runtime : now:(unit -> float) -> Runtime.t -> t
(** Wrap an already-wired runtime (e.g. from {!Sim_runtime.create});
    [now] must be the same clock the runtime reads. *)

val core : t -> Node_core.t

val runtime : t -> Runtime.t

val port : t -> int

val start : t -> unit
(** Start probing/routing loops and (if configured) join the overlay. *)

val leave : t -> unit
(** Announce departure to the coordinator (no-op in static mode). *)

val install_view : t -> View.t -> unit
(** Static-membership entry point: install a view directly, as if the
    coordinator had pushed it. *)

val handle_message : t -> src_port:int -> Message.t -> unit

val current_view : t -> View.t option

val monitor : t -> Monitor.t

val quorum_router : t -> Router.t option
(** The quorum router, when [config.algorithm = Quorum]. *)

val best_hop : t -> dst_port:int -> int option
(** Next-hop port for reaching [dst] ([= dst] for the direct path). *)

val send_data : t -> dst_port:int -> id:int -> unit
(** Originate an application packet: it is forwarded hop by hop along the
    current best one-hop routes (TTL-guarded) and [deliver_data] fires at
    the destination.  Best-effort: dead ends and lost packets vanish. *)

val freshness : t -> dst_port:int -> float option

val double_rendezvous_failure_count : t -> int
(** 0 for the full-mesh algorithm, which has no rendezvous to fail. *)
