(** Stochastic link-failure injection — the "PlanetLab weather" for the
    deployment experiments (Figures 8, 10–14).

    Every link alternates between up and down with exponentially
    distributed sojourn times.  A link's failure rate is the sum of its
    endpoints' rates, and a small {e flaky} minority of nodes carries a
    much higher rate, producing Figure 8's shape: most nodes see a handful
    of concurrent link failures on average, a few see dozens.

    The model keeps each link's phase in a byte array and the links in an
    {!Apor_util.Heap} on (due time, arm order), and keeps one engine
    wakeup pending, at the earliest due time: about four words and a byte
    per link, and never more than one event in the engine's queue.  A wakeup processes every due link in key order, so each
    exponential draw happens in the order that one engine timer per link
    would give, and runs are identical to such a model's. *)

open Apor_sim

type profile = {
  mean_time_to_failure_s : float;  (** per link between healthy endpoints *)
  mean_downtime_s : float;
  flaky_fraction : float;          (** share of flaky nodes *)
  flaky_rate_multiplier : float;   (** rate increase at a flaky endpoint *)
}

val calm : profile
(** Failure-free (infinite MTTF): used by the Figure 9 scaling runs. *)

val planetlab : profile
(** Calibrated to reproduce Figure 8's concurrent-failure CDF on 140
    nodes: median node with a few concurrent failures, 98th percentile
    below ~10 on average, a worst node in the dozens. *)

type t

val install :
  engine:'msg Engine.t ->
  ?first_node:int ->
  ?last_node:int ->
  profile:profile ->
  seed:int ->
  unit ->
  t
(** Start the failure processes over links among nodes
    [first_node .. last_node] (default: the whole network).  Links touching
    nodes outside the range — e.g. a membership coordinator — never fail.
    Deterministic for a given seed. *)

val flaky_nodes : t -> int list
(** The nodes assigned the flaky rate, ascending. *)

val is_flaky : t -> int -> bool
