(** Multi-hop extension: optimal routes of bounded length by iterated
    doubling (Section 3, "Multi-hop routes").

    At iteration [t] every node announces, instead of raw link state, the
    cost of its best known path of at most [2^(t-1)] edges to each
    destination together with [Sec], the second node on that path.  A
    rendezvous server combines two such tables to produce best paths of at
    most [2^t] edges; after [ceil (log2 (n-1))] iterations the tables hold
    true all-pairs shortest paths — at [Theta(n sqrt n log n)] per-node
    communication instead of the classical [Theta(n^2)].

    Symmetric costs are assumed, as in the paper ([run] rejects asymmetric
    matrices). *)

open Apor_util
open Apor_quorum

type t
(** Converged (or partially converged) routing tables. *)

type stats = {
  iterations : int;
  messages_sent : int array;  (** per node, all iterations *)
  bytes_sent : int array;
}

val run : ?iterations:int -> grid:Grid.t -> Costmat.t -> t * stats
(** [run ~iterations ~grid m] performs that many doubling iterations
    (default: enough for all-pairs shortest paths, [ceil (log2 (n-1))],
    minimum 1).  After [t] iterations the tables are optimal over paths of
    at most [2^t] edges.
    @raise Invalid_argument on size mismatch or an asymmetric matrix. *)

val max_path_edges : t -> int
(** [2^iterations], the length bound the tables are optimal for. *)

val cost : t -> src:Nodeid.t -> dst:Nodeid.t -> float
(** Best known path cost; [infinity] if unreachable within the bound. *)

val first_hop : t -> src:Nodeid.t -> dst:Nodeid.t -> Nodeid.t option
(** The [Sec] pointer: the node to forward to; [None] when unreachable or
    [src = dst].  Equal to [dst] itself when the direct link is best. *)

val path : t -> src:Nodeid.t -> dst:Nodeid.t -> Nodeid.t list option
(** Reconstruct a full path [src; ...; dst] by following [Sec] pointers.
    Sound for fully converged tables (where Sec forms a shortest-path
    forest); returns [None] when unreachable.  Guards against pointer
    cycles by bounding the walk at [n] hops.
    @raise Invalid_argument if a cycle is detected (indicates inconsistent
    partial tables). *)
