(** The full-mesh link-state baseline (RON's original router) and the exact
    shortest-path oracles the tests compare against.

    In the baseline every node receives every other node's link-state row
    and computes all best one-hop routes locally — [n - 1] announcements of
    [3n + header] bytes per node per routing interval, the O(n^2) per-node
    cost the paper's algorithm eliminates. *)

open Apor_util

val one_hop_routes : Costmat.t -> Best_hop.choice array array
(** [r.(i).(j)]: optimal one-hop (or direct) choice for every ordered pair;
    the diagonal holds zero-cost self routes. *)

val one_hop_cost_matrix : Costmat.t -> Costmat.t
(** Just the costs of [one_hop_routes] — i.e. paths of at most 2 edges. *)

val dijkstra : Costmat.t -> src:Nodeid.t -> float array * Nodeid.t option array
(** [(dist, predecessor)] of the unrestricted shortest paths from [src].
    [predecessor.(j) = None] for [src] and unreachable nodes. *)

val all_pairs_shortest : Costmat.t -> float array array
(** Unrestricted all-pairs shortest path costs (n Dijkstra runs). *)

val limited_shortest : Costmat.t -> max_edges:int -> float array array
(** Exact cost of the cheapest path using at most [max_edges] edges
    (Bellman–Ford style DP) — the oracle for the multi-hop algorithm:
    after [t] iterations it must equal [limited_shortest ~max_edges:2^t].
    @raise Invalid_argument when [max_edges < 1]. *)
