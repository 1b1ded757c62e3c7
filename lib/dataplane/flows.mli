(** Closed-loop flows, written once for both data-plane drivers.

    A flow sends one datagram, waits for its delivery or for
    {!timeout_s} to pass, thinks, and sends again.  The table keeps three
    fields per flow — the outstanding datagram's id (none while the flow
    thinks), that datagram's due time ([sent_at + timeout_s]) and whether
    a timer is pending — and arms at most one timer per flow, re-armed
    lazily: when it fires, an overdue datagram times out (the host
    forgets it and the flow restarts at once), a newer datagram in flight
    re-arms the timer at its own due time, and a thinking flow lets the
    timer lapse until its next send arms one.  So a flow times out
    exactly [timeout_s] after its outstanding datagram was sent, and at
    most [window] timeouts are pending at any time, whatever the rate.

    The table does no I/O: the host supplies the clock, a timer, and the
    two actions a flow takes on the network. *)

val timeout_s : float
(** Seconds after which a flow abandons its outstanding datagram. *)

type host = {
  now : unit -> float;
  schedule_at : float -> (unit -> unit) -> unit;
      (** Run a callback at an absolute time on the host's clock. *)
  send : flow:int -> now:float -> int;
      (** Originate the flow's next datagram, stamped [now]; its id. *)
  forget : int -> unit;
      (** Drop a timed-out datagram's pending entry, so that a late
          arrival is ignored. *)
}

type t

val create : host -> window:int -> think_s:float -> t
(** [window] flows, none started. *)

val start : t -> rate_pps:float -> unit
(** Flow [f] sends its first datagram [f / rate_pps] seconds from now. *)

val delivered : t -> flow:int -> id:int -> unit
(** Datagram [id] of [flow] arrived: if it is the flow's outstanding
    one, the flow thinks and then sends again; any other id is
    ignored. *)

val stop : t -> unit
(** Send nothing more; pending timers lapse. *)
