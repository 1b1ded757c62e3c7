(** Deterministic, splittable random streams.

    Every stochastic component (topology generation, loss draws, failure
    processes, failover choice, probe phase jitter) owns its own stream,
    derived from a root seed and a label.  Deriving by label means adding a
    new consumer never perturbs the draws of existing ones, so experiment
    outputs stay reproducible as the code evolves. *)

type t

val make : seed:int -> t
(** Root stream for a given experiment seed. *)

val split : t -> string -> t
(** [split t label] derives an independent stream.  The same [(seed, label)]
    pair always yields the same stream; distinct labels yield streams that
    are independent for all practical purposes. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val bool : t -> bool

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p] (clamped to [0, 1]). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean.
    @raise Invalid_argument if [mean <= 0]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box–Muller normal draw. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array.
    @raise Invalid_argument on an empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.
    @raise Invalid_argument on an empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
