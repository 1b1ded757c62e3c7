(** One rendezvous server's round-two batch for one client, at wire width,
    and the delta protocol that carries it.

    A batch is the [(destination, best hop)] pairs a server computed for
    a client at one routing tick, stamped with the server's announcement
    epoch for that tick.  It is stored as that epoch (8 bytes) and
    {!Wire}'s 4-byte recommendation pairs, ascending by destination: ~130
    bytes for the ~2√n entries of a batch at n = 256, not a list of boxed
    tuples.

    {b Deltas.}  Between two ticks nearly every entry repeats.  A server
    that remembers the batch it sent a client at its previous tick sends
    only the changes ({!Sent.record}): the pairs added or moved, and each
    dropped destination with hop {!dropped}, ascending by destination.
    The delta's [base] is the epoch from which that previous batch has
    been sent unchanged, so the client can rebuild the new batch
    ({!receive}) from any batch it holds at [base] or later: a lost
    delta that changed nothing costs nothing.  Holding an older batch
    (or none) is a {e gap}, and the client asks for the full batch
    again.  This mirrors the link-state deltas of {!Wire.Delta} and
    {!Table.apply_delta}, where the base is always the previous epoch. *)

open Apor_util

type t

val dropped : Nodeid.t
(** [-1]: the hop a change carries for a destination the new batch no
    longer holds (0xFFFF on the wire). *)

val of_entries : epoch:int -> (Nodeid.t * Nodeid.t) list -> t option
(** The batch of [entries] at [epoch].  [None] unless the destinations
    are strictly ascending and every id lies in [[0, 0xFFFE]]: such a
    list cannot be the base of a delta, so it is not stored. *)

val epoch : t -> int

val entries : t -> (Nodeid.t * Nodeid.t) list
(** The pairs, ascending by destination. *)

val iter : t -> (Nodeid.t -> Nodeid.t -> unit) -> unit
(** [iter t f] calls [f dst hop] on each pair, ascending, allocating
    nothing. *)

val hop : t -> Nodeid.t -> Nodeid.t option
(** The hop the batch holds for a destination (binary search). *)

val receive :
  held:t option ->
  epoch:int ->
  base:int ->
  (Nodeid.t * Nodeid.t) list ->
  [ `Applied of t | `Stale | `Gap | `Malformed ]
(** A client's view of a delta stamped [epoch] that applies on top of
    the batch the server has sent unchanged since [base].  [`Applied b]:
    [held] is at [base] or later (and before [epoch]), and [b] is the
    rebuilt batch at [epoch] — [held] itself, rewritten in place, when
    the delta only moves hops, so [b] replaces [held].  [`Stale]: [held] is already at [epoch] or
    later (a duplicate or a reordered old delta), so drop it.  [`Gap]:
    [held] is older than [base], or absent; ask for the full batch.
    [`Malformed]: the changes are not strictly ascending or hold an id
    outside the wire's range, so they are network junk. *)

(** A server's side: every batch it sent at one routing tick.  They go
    to the clients among the tick's fresh ranks and each covers the fresh
    ranks minus its client, so one rank array and one |fresh|² matrix of
    16-bit hops hold them all (~2 KB at n = 256), where one {!t} per
    client would take about three times that. *)
module Sent : sig
  type t

  val create : epoch:int -> Nodeid.t list -> t
  (** The tick at [epoch] with these fresh ranks (ascending); no batch
      recorded yet. *)

  val epoch : t -> int

  val record :
    t ->
    prev:t option ->
    client:Nodeid.t ->
    (Nodeid.t -> Nodeid.t) ->
    (int * (Nodeid.t * Nodeid.t) list) option
  (** [record t ~prev ~client hop] records the batch this tick sends
      [client] — [hop dst] for every fresh rank [dst] but [client],
      ascending — and says how to send it, given the server's previous
      tick [prev]: [Some (base, changes)] when [prev] sent [client] a
      batch and the delta is the smaller form
      ({!Overhead.recommendation_delta_bytes} against
      {!Overhead.recommendation_message_bytes}), [None] for the full
      batch.  [changes] holds every pair that is new or whose hop moved,
      and [(dst, dropped)] for every destination the previous batch had
      and this one lacks, ascending by destination ([[]] when nothing
      changed).  [base] is the epoch from which [client]'s batch has been
      sent unchanged.
      @raise Invalid_argument when [client] is not a fresh rank or a hop
      lies outside [[0, 0xFFFE]]. *)

  val entries : t -> client:Nodeid.t -> (Nodeid.t * Nodeid.t) list option
  (** The batch recorded for [client], ascending: what a full send, or a
      resync answer at {!epoch}, carries. *)
end
