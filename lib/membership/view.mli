(** A membership view: a version number plus the sorted member list.

    Overlay nodes are addressed by their {e port} (network index, stable
    for a node's lifetime).  Routing state — snapshots, tables, grids,
    route arrays — is indexed by the member's {e rank} in the sorted list
    of the current view, so that all nodes sharing a view agree on the
    grid layout (Section 5, Membership Service).  Messages carry the view
    version; state from other views is discarded.

    Under decentralized membership ({!Membership_core}) the version is an
    {e epoch}: [(counter lsl 16) lor sponsor_port], totally ordered and
    unique across concurrent sponsors. *)

open Apor_util

type t

val create : version:int -> members:int list -> t
(** [members] are ports; duplicates are removed and the list sorted.
    @raise Invalid_argument when empty or containing negatives. *)

val version : t -> int

val size : t -> int

val members : t -> int array
(** Sorted ports; index in this array is the member's rank. *)

val rank_of_port : t -> int -> Nodeid.t option
(** O(log n). *)

val port_of_rank : t -> Nodeid.t -> int
(** @raise Invalid_argument for an out-of-range rank. *)

val contains_port : t -> int -> bool

val equal : t -> t -> bool

val rank_map : prev:t -> next:t -> Nodeid.t option array
(** For each rank of [next], the rank the same port held in [prev]
    ([None] for a fresh joiner).  The router carries learned routes
    across a view change through it. *)
