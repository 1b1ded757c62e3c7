(** Mutable binary min-heap keyed by floats.

    The simulator's event queue, the UDP runtime's timer queue and the
    failure model's link schedule: [pop] returns elements in
    non-decreasing key order; ties are broken by insertion order so that
    events scheduled for the same instant run first-scheduled-first — a
    property the protocol state machines rely on for determinism.

    Entries live in three parallel arrays (unboxed keys, insertion
    sequence numbers, values): three array slots per element. *)

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
