(** The one-hop route kernel.

    Given node [src]'s outgoing costs and the costs into [dst], find the
    cheapest path [src ~ h ~ dst] over all intermediaries [h], compared
    against the direct link.  This is the computation a rendezvous server
    performs for each pair of its clients in round two (Figure 3), and the
    hot inner loop of the whole system. *)

open Apor_util

type choice = {
  hop : Nodeid.t;  (** Intermediary, or [dst] itself for the direct path. *)
  cost : float;    (** Total path cost; [infinity] when nothing reaches. *)
}

val direct : dst:Nodeid.t -> cost:float -> choice
(** The no-detour choice: hop is [dst] itself at the given direct cost. *)

val is_direct : dst:Nodeid.t -> choice -> bool
(** Whether the choice takes the direct path ([hop = dst]). *)

val best :
  src:Nodeid.t ->
  dst:Nodeid.t ->
  cost_from_src:float array ->
  cost_to_dst:float array ->
  choice
(** [cost_from_src.(h)] is [cost src h]; [cost_to_dst.(h)] is [cost h dst]
    (for symmetric metrics this is just [dst]'s announced vector).  Ties
    prefer the direct path, then the lowest hop id, making results
    deterministic across rendezvous servers.
    @raise Invalid_argument when the vectors' lengths differ or [src],
    [dst] are out of range or equal. *)

val brute_force_cost : Costmat.t -> Nodeid.t -> Nodeid.t -> float
(** Reference oracle: cheapest one-hop (or direct) cost read straight off a
    full cost matrix.  O(n); for tests and figure generation. *)

(** Incremental per-pair cache for rendezvous servers.

    A server recomputes {!best} for each of its client pairs every routing
    interval, yet between intervals most cost vectors change in only a few
    entries (that is what makes delta announcements pay off).  [Cache]
    stores one cost vector per client and the current winner per [(src,
    dst)] pair, and on a delta re-examines only the changed candidates —
    O(changed hops) instead of O(n) — falling back to a full rescan when
    the incumbent hop itself got more expensive.

    Results are {e exactly} those of {!best}, including tie-breaks (direct
    first, then lowest hop id); the trace Oracle holds cached and scanned
    answers to the same one-hop-optimality check.

    {b Representation.} Each owner holding a vector gets a dense slot
    (an [n]-entry slot index and its inverse); the winners live in two
    flat [cap * cap] arrays indexed by [slot src * cap + slot dst], the
    hop as an [int] (-1: not cached) and the cost as an unboxed [float].
    [cap] starts at [2 * isqrt n + 2] — a rendezvous server's clients plus
    itself — and grows by half, up to [n], when more owners arrive; growing
    copies the cached pairs across.  An owner's cached pairs are its
    slot's row and column, so no dependency index is kept.  Besides the
    vectors themselves ([n] floats per owner), a cache costs
    [n + cap + 2 cap^2] words.

    {b Costs.} {!best}: O(1) on a hit, one O(n) scan on a miss.
    {!set_vector} and {!drop_vector}: O(cap) to clear the owner's row and
    column (plus an O(cap^2) copy when the arrays grow).
    {!update_vector}: O(changes) to patch the vector, then either O(cap)
    to invalidate the row and column (large batches) or an O(cap) walk
    that repairs each cached pair in O(changes), O(n) when the incumbent
    hop got worse.  {!remap}: O(n) per carried vector. *)
module Cache : sig
  type t

  val create : n:int -> t
  (** Empty cache over an overlay of [n] nodes: no vectors, no pairs.
      @raise Invalid_argument when [n < 2]. *)

  val set_vector : t -> Nodeid.t -> float array -> unit
  (** Install (or wholesale replace) [owner]'s cost vector, invalidating
      every cached pair that involves [owner].  The array is kept by
      reference and mutated by {!update_vector} — hand over a fresh one.
      @raise Invalid_argument on a length mismatch. *)

  val stats : t -> int * int * int * int
  (** [(hits, misses, updates, rescans)] — pair lookups served from cache,
      pair lookups that ran a full scan, incremental O(changes) pair
      updates, and incremental updates that degraded to a full rescan. *)

  val vector : t -> Nodeid.t -> float array option
  (** The stored cost vector for [owner], if any. *)

  val drop_vector : t -> Nodeid.t -> unit
  (** Forget [owner]'s vector and invalidate every cached pair using it
      (membership departure or staleness expiry). *)

  val best : t -> src:Nodeid.t -> dst:Nodeid.t -> choice
  (** The cached winner for [(src, dst)], computing and caching it with a
      full {!best} scan on a miss.
      @raise Invalid_argument when either vector is absent or [src = dst]. *)

  val remap : t -> n:int -> map:Nodeid.t option array -> t
  (** A fresh cache of size [n] carrying the survivors of a membership
      change: [map.(r)] is the old id whose stored vector new id [r]
      inherits ([None] for joiners, or survivors whose carried state the
      caller chose to drop).  Carried vectors are permuted through [map];
      entries toward vanished ids become [infinity], matching what a
      snapshot reports for an unreachable peer.  No cached pairs are
      carried — winners can shift when candidates vanish, so pairs are
      recomputed on demand, keeping answers canonical.
      @raise Invalid_argument when [n < 2], the map's length is not [n],
      or a mapped id is out of range for the source cache. *)

  val update_vector : t -> Nodeid.t -> changes:(Nodeid.t * float) list -> unit
  (** Apply [changes] ([(id, new cost)]) to [owner]'s stored vector in
      place and incrementally repair every cached pair involving [owner].
      When the batch is large relative to [n] (steady-state measurement
      noise rather than a link event), the dependent pairs are invalidated
      instead — the next query's canonical rescan is cheaper than
      per-change repair, and answers are identical either way.
      @raise Invalid_argument when no vector is stored or an id is out of
      range. *)
end
