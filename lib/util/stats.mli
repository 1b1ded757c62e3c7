(** Descriptive statistics over float samples. *)

val mean : float list -> float
(** Arithmetic mean. @raise Invalid_argument on an empty list. *)

val mean_array : float array -> float
(** @raise Invalid_argument on an empty array. *)

val stddev : float list -> float
(** Population standard deviation. @raise Invalid_argument on an empty list. *)

val minimum : float list -> float
(** @raise Invalid_argument on an empty list. *)

val maximum : float list -> float
(** @raise Invalid_argument on an empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0, 100], linear interpolation between
    order statistics (the convention gnuplot and numpy default to, and the
    one the paper's CDF figures imply).
    @raise Invalid_argument on an empty list or [p] outside [0, 100]. *)

val median : float list -> float
(** [percentile 50.]. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p97 : float;
  max : float;
}
(** The aggregate rows the paper's freshness figures report (median,
    average, 97th percentile, max). *)

val summarize : float list -> summary option
(** [None] on an empty list. *)

module Online : sig
  (** Streaming mean/min/max accumulator (Welford variance), used by the
      per-node metric counters where storing every sample would be
      quadratic. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** @raise Invalid_argument when no samples were added. *)

  val variance : t -> float
  (** Population variance. @raise Invalid_argument when empty. *)

  val min : t -> float
  (** @raise Invalid_argument when empty. *)

  val max : t -> float
  (** @raise Invalid_argument when empty. *)
end
