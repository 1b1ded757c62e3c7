(** The one-hop route kernel.

    Given node [src]'s outgoing costs and the costs into [dst], find the
    cheapest path [src ~ h ~ dst] over all intermediaries [h], compared
    against the direct link.  This is the computation a rendezvous server
    performs for each pair of its clients in round two (Figure 3), and the
    hot inner loop of the whole system. *)

open Apor_util
open Apor_linkstate

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

val best_rows : Metric.t -> src:Snapshot.t -> dst:Snapshot.t -> choice
(** {!best} read straight off two link-state rows: [src]'s row gives the
    costs out of its owner, [dst]'s row the costs into its owner (the
    symmetric-metric reading round two uses).  Equals {!best} over the
    rows' {!Snapshot.cost_vector}s, hop and cost, without building them.
    Under [Metric.Latency] the scan adds the cells' 16-bit latencies as
    integers (0xFFFF: dead); a live sum is at most [2 * 65534], exact in
    a float, so every comparison and tie is the float scan's.  Under
    [Loss_sensitive] it sums the float costs decoded from the cells.
    @raise Invalid_argument when the rows' sizes differ or their owners
    are equal. *)

(** Incremental per-pair cache for rendezvous servers.

    A server recomputes {!best} for each of its client pairs every routing
    interval, yet between intervals most rows change in only a few
    entries (that is what makes delta announcements pay off).  [Cache]
    holds the current winner per [(src, dst)] pair of the rows it is told
    about, and on a changed row re-examines only the changed candidates —
    O(changed hops) instead of O(n) — falling back to a full rescan when
    the incumbent hop itself got more expensive.

    Results are {e exactly} those of {!best} over the rows'
    {!Snapshot.cost_vector}s, including tie-breaks (direct first, then
    lowest hop id); the trace Oracle holds cached and scanned answers to
    the same one-hop-optimality check.

    {b Representation.} The cache stores no costs of its own: it holds,
    by reference, the very {!Snapshot.t} the link-state table stores for
    each owner, and reads costs from its 3-byte cells ({!best_rows}'
    integer rule under [Latency]).  Each owner whose row is held gets a
    dense slot (an [n]-entry slot index and a [cap]-entry slot-to-row
    array); the winners live in two flat [cap * cap] arrays indexed by
    [slot src * cap + slot dst], the hop as an [int] (-1: not cached) and
    the cost as an unboxed [float].  [cap] starts at [2 * isqrt n + 2] — a
    rendezvous server's clients plus itself — and grows by half, up to
    [n], when more owners arrive; growing copies the cached pairs across.
    An owner's cached pairs are its slot's row and column, so no
    dependency index is kept.  Besides the rows, which the table owns, a
    cache costs [n + cap + 2 cap^2] words.

    {b Costs.} {!best}: O(1) on a hit, one O(n) scan of two rows' cells
    on a miss.  {!set_row} and {!drop_row}: O(cap) to clear the owner's
    row and column (plus an O(cap^2) copy when the arrays grow).
    {!update_row}: O(cap) to invalidate the row and column (large
    batches), or an O(cap) walk that repairs each cached pair in
    O(changes), O(n) when the incumbent hop got worse.

    {b Contract.} Whoever changes a held row must say so for every cell
    its metric reads: {!set_row} when the row is replaced wholesale,
    {!update_row} when it changed in place or was replaced by a copy
    differing at known ids.  A change the metric cannot see — a loss
    byte under [Latency] — may go untold, even when the row was replaced
    by a copy: the cache then reads the held snapshot, whose cells agree
    with the new row in every field the metric reads. *)
module Cache : sig
  type t

  val create : n:int -> metric:Metric.t -> t
  (** Empty cache over an overlay of [n] nodes: no rows, no pairs.
      @raise Invalid_argument when [n < 2]. *)

  val set_row : t -> Snapshot.t -> unit
  (** Hold [row] (by reference, never copied) as its owner's row,
      replacing any previous one and invalidating every cached pair that
      involves the owner.
      @raise Invalid_argument when the row's size is not [n]. *)

  val update_row : t -> Snapshot.t -> changed:Nodeid.t list -> unit
  (** Its owner's row now reads as [row] — the held snapshot mutated in
      place, or a replacement — and differs from the previous one only at
      the ids in [changed]; hold [row] and incrementally repair every
      cached pair involving the owner.  When the batch is large relative
      to [n] (steady-state measurement noise rather than a link event),
      the dependent pairs are invalidated instead — the next query's
      canonical rescan is cheaper than per-change repair, and answers are
      identical either way.
      @raise Invalid_argument when no row is held for the owner, the
      row's size is not [n], or an id is out of range. *)

  val drop_row : t -> Nodeid.t -> unit
  (** Forget [owner]'s row and invalidate every cached pair using it
      (membership departure or staleness expiry). *)

  val best : t -> src:Nodeid.t -> dst:Nodeid.t -> choice
  (** The cached winner for [(src, dst)], computing and caching it with a
      full {!best_rows} scan on a miss.
      @raise Invalid_argument when either row is absent or [src = dst]. *)

  val stats : t -> int * int * int * int
  (** [(hits, misses, updates, rescans)] — pair lookups served from cache,
      pair lookups that ran a full scan, incremental O(changes) pair
      updates, and incremental updates that degraded to a full rescan. *)
end
