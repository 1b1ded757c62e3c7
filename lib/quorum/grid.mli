(** Grid quorum construction (Section 3 of the paper).

    Nodes [0 .. n-1] are laid out row-major in a grid of [rows] x [cols]
    cells with [rows * cols >= n].  Node [i]'s {e rendezvous servers} [R_i]
    are the other nodes in its row and column, plus the paper's
    extra assignments that repair the redundancy lost to the blank cells of
    an incomplete last row: the last-row node in column [c] is paired with
    the complete-row nodes [(c, j)] for every column [j] beyond the last
    row's end, symmetrically.

    Grid shape follows the paper's footnote: with [a = sqrt n - floor (sqrt n)],
    the grid is [ceil (sqrt n) x floor (sqrt n)] (rows x cols) when [a < 0.5]
    and [ceil (sqrt n) x ceil (sqrt n)] otherwise; equivalently, [cols] is
    the unique width for which the grid is as square as possible while
    wasting less than a full row.

    Guarantees (enforced by [verify] and the test suite):
    - cover: for every pair [i <> j], [common_rendezvous t i j] is non-empty
      or one of the pair is a rendezvous server of the other;
    - double redundancy for all pairs whose two crossing positions exist;
    - balance: every node has at most [2 * ceil (sqrt n)] servers/clients.

    Representation: a grid is the four integers [n], [rows], [cols] and
    [last_row_length] — O(1) words whatever [n] — and every query is
    arithmetic on row-major positions ([id = row * cols + col]).  Nothing
    is tabulated, so [build] costs O(1) and a node holding one grid per
    view pays nothing for it beyond its own routing state.  Query costs,
    with [d = rows + cols = O(sqrt n)] the rendezvous degree:
    - [build], [position], [node_at], [max_rendezvous_degree]: O(1);
    - [is_rendezvous_for]: O(1) and allocation-free — a same-row or
      same-column test, plus the extra-assignment test only on an
      incomplete grid;
    - [rendezvous_servers], [failover_candidates]: O(d), allocating just
      the result list;
    - [common_rendezvous], [connecting]: O(1) plus the extras of the pair
      when [i] and [j] share neither row nor column (the two crossing
      cells, and at most [cols - last_row_length] extra partners), O(d) when
      they share one. *)

open Apor_util

type t

val build : int -> t
(** [build n] lays out an [n]-node grid.
    @raise Invalid_argument unless [1 <= n <= Nodeid.max_nodes]. *)

val size : t -> int
(** Number of nodes [n]. *)

val rows : t -> int

val cols : t -> int

val last_row_length : t -> int
(** Number of occupied cells in the last row, in [1, cols]. *)

val is_complete : t -> bool
(** Whether the grid has no blank cells ([last_row_length = cols]). *)

val position : t -> Nodeid.t -> int * int
(** [(row, col)], both 0-based.
    @raise Invalid_argument for an out-of-range id. *)

val node_at : t -> row:int -> col:int -> Nodeid.t option
(** Occupant of a cell, or [None] for blank/out-of-range cells. *)

val row_members : t -> int -> Nodeid.t list
(** All occupants of a row, ascending. *)

val col_members : t -> int -> Nodeid.t list
(** All occupants of a column, ascending. *)

val rendezvous_servers : t -> Nodeid.t -> Nodeid.t list
(** [R_i]: row-mates, column-mates and extra assignments, ascending,
    excluding [i] itself. *)

val rendezvous_clients : t -> Nodeid.t -> Nodeid.t list
(** [C_i].  Equal to [rendezvous_servers] — the grid construction is
    symmetric, including the extra assignments. *)

val is_rendezvous_for : t -> server:Nodeid.t -> client:Nodeid.t -> bool

val common_rendezvous : t -> Nodeid.t -> Nodeid.t -> Nodeid.t list
(** [R_i] intersect [R_j], ascending.  By construction non-empty for all
    [i <> j] except when one of the pair serves the other directly (they
    share a row or column), in which case each already holds the other's
    link state. *)

val connecting : t -> Nodeid.t -> Nodeid.t -> Nodeid.t list
(** Nodes able to compute the best hop between [i] and [j]: the common
    rendezvous servers plus whichever of [i], [j] serves the other.  Always
    non-empty for [i <> j]; this is the set whose total failure constitutes
    the paper's "double rendezvous failure". *)

val failover_candidates : t -> dst:Nodeid.t -> Nodeid.t list
(** The [~2*sqrt n] nodes receiving [dst]'s link state — the pool a node
    draws failover rendezvous servers from (Section 4.1).  Equals
    [rendezvous_servers t dst]. *)

val max_rendezvous_degree : t -> int
(** Largest [|R_i|] over all nodes — the load-balance bound of Theorem 1. *)

val verify : t -> (unit, string) result
(** Exhaustively re-check the cover, symmetry and balance invariants;
    [Error] carries a human-readable description of the first violation.
    O(n^2 sqrt n): meant for tests, not the data path. *)

val pp : Format.formatter -> t -> unit
(** Render the grid the way the paper draws it (Figure 2). *)
