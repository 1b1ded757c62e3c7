(** The partial [n x n] link-state table a node maintains (Section 5).

    Row [i] holds the most recent snapshot received from node [i] (for a
    rendezvous server: its clients' announcements; for the full-mesh
    baseline: everyone's), stamped with its arrival time and the sender's
    announcement {e epoch}.  The owner's own row is written directly by
    the link monitor.

    Epochs order a sender's announcements: a full snapshot replaces any
    older epoch, and a delta ({!Wire.Delta}) applies only on top of the
    immediately preceding epoch — any other stored epoch is a {e gap}
    (lost or reordered announcement) and the caller must recover a full
    snapshot.

    A rendezvous server only uses rows received within the last
    [3 * routing_interval] (the paper's staleness window, chosen for
    redundancy against lost announcements); [fresh_row] implements that
    cut-off. *)

open Apor_util

type t

val create : n:int -> owner:Nodeid.t -> t
(** All rows initially absent except the owner's, which starts with every
    link dead (nothing probed yet) at epoch [-1]. *)

val n : t -> int
(** Overlay size the table covers. *)

val owner : t -> Nodeid.t
(** The node this table belongs to. *)

val set_own_row : t -> Snapshot.t -> epoch:int -> now:float -> unit
(** Install the owner's current measurements at announcement epoch [epoch].
    @raise Invalid_argument when the snapshot's owner or size mismatch. *)

val ingest : t -> Snapshot.t -> epoch:int -> now:float -> bool
(** Store a full snapshot received from the network in its owner's row,
    replacing any older one.  Returns whether the row was stored: [false]
    means the snapshot was out of order (older timestamp or lower epoch
    than the stored row) and was ignored.
    @raise Invalid_argument on a size mismatch. *)

val apply_delta :
  t ->
  Wire.Delta.t ->
  now:float ->
  [ `Applied of Snapshot.t | `Stale | `Gap | `Malformed ]
(** Apply a delta announcement to its owner's row.  [`Applied s] stores and
    returns the reconstructed snapshot (the delta's epoch was exactly one
    past the stored row's).  [`Stale] means the delta's epoch is not newer
    than the stored row — a duplicate or reordered old packet, safe to
    drop.  [`Gap] means the base epoch is missing (no row, or one or more
    announcements were lost): the caller should request a full snapshot.
    [`Malformed] flags out-of-range ids — network junk, never stored.

    The first delta on a row stored by {!ingest} copies it (that snapshot
    is shared with its sender and other receivers and is never mutated);
    later deltas mutate the table's private copy in place, avoiding a
    full-row copy per delta.  A snapshot read out of this table (including
    the [`Applied] result) is therefore only valid until the next
    [apply_delta] for its owner: a reader that keeps it must either copy
    it or, like the router's round-two cache, be told of every
    [`Applied] and re-read the changed cells. *)

val row : t -> Nodeid.t -> Snapshot.t option
(** Latest snapshot from node [i], regardless of age. *)

val row_epoch : t -> Nodeid.t -> int option
(** Announcement epoch of the stored row [i]. *)

val row_age : t -> Nodeid.t -> now:float -> float option
(** Seconds since row [i] was received. *)

val fresh_row : t -> Nodeid.t -> now:float -> max_age:float -> Snapshot.t option
(** [row] filtered by the staleness window. *)

val drop_row : t -> Nodeid.t -> unit
(** Forget node [i]'s row (membership departure). *)

val known_rows : t -> Nodeid.t list
(** Ids with a stored row, ascending. *)

val anyone_reaches : t -> Nodeid.t -> bool
(** Does any stored row report a live link to [dst]?  This is the
    dead-destination check of Section 4.1: when none of a node's clients
    can reach [dst], further failover for [dst] is pointless. *)
