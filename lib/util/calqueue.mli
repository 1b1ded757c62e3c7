(** Calendar queue: a self-tuning timing wheel with a far-future overflow
    heap.

    Drop-in replacement for {!Heap} on the simulator's scheduler hot path:
    [pop] returns elements in non-decreasing key order, ties broken by
    insertion order (first-pushed-first), so a [push]/[pop] trace is
    element-for-element identical to the binary heap's — the determinism
    property the protocol state machines rely on.  The difference is cost:
    near-future events hash into per-bucket mini-heaps indexed by
    [floor (key / width)], so steady-state push and pop touch a handful of
    entries instead of sifting a log-depth heap of every pending event.
    Bucket count and width re-tune automatically as the population and the
    observed inter-event gap drift; events far beyond the wheel's window
    wait in an overflow heap. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:float -> 'a -> unit
(** [push t ~key v] inserts [v] with priority [key].
    @raise Invalid_argument if [key] is NaN. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-key element, if any.  The vacated slot is
    released, so the popped element is collectable as soon as the caller
    drops it. *)

val peek : 'a t -> (float * 'a) option
(** Return the minimum-key element without removing it. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over the queued elements in no particular order. *)

val clear : 'a t -> unit
