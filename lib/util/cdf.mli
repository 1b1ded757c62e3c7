(** Empirical cumulative distribution functions.

    The paper's evaluation figures are all CDFs of per-node or per-pair
    quantities; this module turns sample lists into the "number of items
    with value <= x" (or fraction) rows those plots show. *)

type t

val of_list : float list -> t
(** @raise Invalid_argument on an empty list. *)

val size : t -> int

val fraction_le : t -> float -> float
(** [fraction_le t x] is the fraction of samples [<= x]. *)

val count_le : t -> float -> int
(** Number of samples [<= x] — the y-axis of Figures 8, 10, 11. *)

val value_at : t -> float -> float
(** [value_at t q] with [q] in [0, 1]: smallest sample [v] such that
    [fraction_le t v >= q].
    @raise Invalid_argument if [q] outside [0, 1]. *)

val rows : t -> xs:float list -> (float * float) list
(** [(x, fraction_le x)] rows for plotting at prescribed abscissae. *)

val steps : t -> (float * int) list
(** The full staircase: for each distinct sample value [v], [(v, count_le v)].
    This is what the paper's "number of nodes with <=" axes plot. *)
