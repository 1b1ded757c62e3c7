(** An immutable link-state table snapshot: what one node announces to its
    rendezvous servers in round one.

    {b Representation.} The entries are stored as the wire bytes
    themselves ({!Wire}'s layout): 3 bytes per entry, a big-endian u16
    latency in whole milliseconds (0xFFFF marks a dead link) and a loss
    byte holding k/254 (0xFF marks a dead link).  Cells are canonical —
    every dead cell is (0xFFFF, 0xFF), the owner's cell is (0, 0) — so a
    snapshot of [n] entries occupies one [3n]-byte string plus two words,
    and byte equality is entry equality.

    {b Costs.} {!entry}, {!cost}, {!reaches} and their unchecked
    {!unsafe_latency} and {!unsafe_cost} decode one cell in O(1);
    {!cost_vector}, {!diff}, {!equal}, {!alive_count} and {!copy} are one
    O(n) pass over the bytes ({!copy} is a [3n]-byte blit); {!overwrite}
    is O(changes); {!wire_bytes} is O(1) and {!of_wire} one O(n) copy. *)

open Apor_util

type t

val create : owner:Nodeid.t -> Entry.t array -> t
(** [create ~owner entries] quantizes and freezes [entries] with exactly
    the rounding of {!Entry.quantize} and the wire encoder (loss clamped
    at 254/254); index [owner] is forced to {!Entry.self}.
    @raise Invalid_argument when [owner] is outside the array. *)

val of_wire : owner:Nodeid.t -> bytes -> (t, string) result
(** [of_wire ~owner b] reads a [3n]-byte link-state payload ({!Wire}'s
    entry layout) into a snapshot, copying [b].  The result is canonical:
    any cell whose latency is 0xFFFF or whose loss byte is 0xFF becomes
    the dead cell, and cell [owner] becomes {!Entry.self}.  Equals
    {!Wire.decode_entries} followed by {!create}, entry by entry.  A
    length that is not a multiple of 3, or an [owner] outside the table,
    is an [Error], never an exception: the bytes arrive from the network. *)

val wire_bytes : t -> bytes
(** The snapshot's [3n]-byte wire payload, shared with [t] and read-only:
    the caller must not mutate it.  Encoding a snapshot is a blit of
    these bytes. *)

val owner : t -> Nodeid.t
(** The node whose outgoing links this snapshot describes. *)

val size : t -> int
(** Overlay size [n] the snapshot describes. *)

val entry : t -> Nodeid.t -> Entry.t
(** @raise Invalid_argument for an out-of-range id. *)

val cost : t -> Metric.t -> Nodeid.t -> float
(** [cost t metric j]: scalar cost of the owner's link to [j]. *)

val dead_latency : int
(** [0xFFFF]: the raw latency of every dead cell. *)

val unsafe_latency : t -> Nodeid.t -> int
(** Cell [j]'s raw 16-bit latency in whole milliseconds, {!dead_latency}
    when the link is dead, without a bounds check: [j] must lie in
    [\[0, size t)].  The round-two scan kernel's reader. *)

val unsafe_cost : t -> Metric.t -> Nodeid.t -> float
(** {!cost} without the bounds check: [j] must lie in [\[0, size t)]. *)

val cost_vector : t -> Metric.t -> float array
(** All costs as a fresh array indexed by destination. *)

val reaches : t -> Nodeid.t -> bool
(** Whether the owner currently considers its link to [j] alive. *)

val alive_count : t -> int
(** Number of live links (excluding self). *)

val payload_bytes : t -> int
(** Wire payload size: [3 * n] bytes, per the paper. *)

val copy : t -> t
(** Deep copy; the result shares nothing with the original. *)

val overwrite : t -> (Nodeid.t * Entry.t) list -> unit
(** In-place {!with_entries}: replace each listed entry (quantized, owner
    index forced to {!Entry.self}) inside [t] itself.  Snapshots are
    shared freely — between a sender's announcement history and every
    receiver's table in the emulation — so this is only safe on a snapshot
    the caller exclusively owns (see {!Table.apply_delta}).
    @raise Invalid_argument for an out-of-range id. *)

val with_entries : t -> (Nodeid.t * Entry.t) list -> t
(** [with_entries t changes] is [t] with each listed entry replaced
    (quantized, owner index forced to {!Entry.self}) — how a receiver
    applies a {!Wire.Delta} to its stored copy of a row.
    @raise Invalid_argument for an out-of-range id. *)

val diff : metric:Metric.t -> prev:t -> next:t -> (Nodeid.t * Entry.t) list
(** Entries of [next] whose cell differs from [prev]'s in a field [metric]
    reads, ascending by id; the change list a delta announcement carries.
    [Latency] reads the 16-bit latency alone (dead cells are canonical, so
    a liveness flip always differs there); [Loss_sensitive] reads the
    whole cell.  Under [Loss_sensitive], [with_entries prev (diff ~metric
    ~prev ~next)] equals [next]; under [Latency] it equals [next] in every
    latency and liveness, and [prev] in the loss byte of every cell whose
    latency did not change.
    @raise Invalid_argument when owners or sizes differ. *)

val diff_and_churn :
  metric:Metric.t -> prev:t -> last:t -> next:t -> (Nodeid.t * Entry.t) list * int
(** [(diff ~metric ~prev ~next, churn)] in one pass over the row, where
    [churn] counts the cells in which [next] differs from [last] in any
    field — how much a measured row moved since the previous one, whatever
    the metric reads.
    @raise Invalid_argument when owners or sizes differ. *)

val equal : t -> t -> bool
(** Same owner and entry-wise {!Entry.equal}. *)

val pp : Format.formatter -> t -> unit
(** One line: owner plus each entry via {!Entry.pp}. *)
