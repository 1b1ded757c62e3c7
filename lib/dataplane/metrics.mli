(** User-traffic metrics: goodput, path stretch, loss.

    One collector per run.  Deliveries record end-to-end latency and —
    when a direct-path baseline is known — {e stretch}, the ratio of the
    overlay path's one-way latency to the direct path's.  Samples land
    in fixed log-spaced histograms, so percentiles (p50/p99/p999) are
    deterministic functions of the multiset of samples, independent of
    arrival order — which keeps the emitted JSON byte-identical across
    equal-seed runs.

    Loss is tracked per send window: a delivery credits the window its
    datagram was {e sent} in, so a window's loss is exactly the fraction
    of that window's offered datagrams that never arrived (in-flight
    datagrams at the horizon count as lost — run past the measurement
    interval or accept the tail). *)

type t

val create : window_s:float -> t0:float -> t
(** [t0] anchors window 0; sends before [t0] fall into window 0.
    @raise Invalid_argument for a non-positive window. *)

val record_sent : t -> now:float -> unit

val record_delivered :
  t -> now:float -> sent_at:float -> payload:int -> direct_s:float option -> hops:int -> unit
(** [direct_s] is the one-way direct-path baseline for the pair, when
    known; a sample with [None] (or a non-positive baseline) contributes
    latency but no stretch. *)

val record_dropped : t -> now:float -> unit
(** An explicit data-plane drop (hop budget, backpressure) — for the
    drop counter; the datagram's loss is already captured by its window
    never being credited. *)

val sent : t -> int
val delivered : t -> int
val dropped : t -> int

val loss_overall : t -> float
(** [(sent - delivered) / sent]; 0 when nothing was sent. *)

val worst_window : t -> (float * float) option
(** [(loss, window_start_time)] of the worst send window with any
    offered traffic; ties resolve to the earliest window. *)

val goodput_kbps : t -> t1:float -> float
(** Delivered payload bits per second over [t1 - t0], in kbps. *)

val latency_percentile : t -> float -> float option
(** [latency_percentile t p] for [p] in [0, 100]: approximate (binned)
    one-way latency percentile in seconds, the geometric midpoint of a
    bin 1/100 of a decade wide between 100 ns and 1000 s (samples under
    100 ns read as 100 ns). *)

val stretch_percentile : t -> float -> float option
val stretch_samples : t -> int

val json_fields : t -> runtime:string -> shape:string -> n:int -> t1:float -> string
(** The report's inner JSON fields (no braces), byte-deterministic:
    runtime, shape, n, duration, counters, goodput, latency and stretch
    percentiles, loss, and the direct/relayed split. *)
