(** The runtime harness around a {!Node_core}: the one loop that turns
    the core's effects-as-data back into actual effects.

    A runtime owns the transport (what "send" means), the clock (what
    "now" means) and the timer service; the core owns the protocol.
    {!dispatch} is the only coupling: apply an input to the core, then
    interpret each output {e in order} — order is part of the protocol's
    observable behaviour (e.g. a link-state push must hit the wire before
    the trace event announcing it is recorded).

    Two implementations exist: {!Apor_overlay.Sim_runtime} (discrete-event
    simulator — every [schedule] is an engine event at its absolute
    time, [now] is virtual time) and [Apor_deploy.Udp_runtime] (real sockets, monotonic wall
    clock).  Timer outputs are interpreted here once and for all: the
    armed closure re-enters {!dispatch} with the corresponding
    [Tick]. *)

type t

val create :
  core:Node_core.t ->
  now:(unit -> float) ->
  send:(dst_port:int -> Message.t -> unit) ->
  schedule:(at:float -> (unit -> unit) -> unit) ->
  ?on_recommend:(server_port:int -> dst_port:int -> hop_port:int -> unit) ->
  ?trace:(Apor_trace.Event.t -> unit) ->
  unit ->
  t
(** [schedule ~at f] must run [f] at absolute time [at] on the [now]
    clock (or as soon after as it can).  [trace] interprets
    {!Node_core.Trace} outputs, [on_recommend] the coverage-tracking
    {!Node_core.Recommend} outputs. *)

val core : t -> Node_core.t

val dispatch : t -> Node_core.input -> unit
(** Read the clock, run [Node_core.handle], interpret the outputs in
    order.  Not re-entrant (the core isn't); timer closures re-enter via
    the runtime's own scheduler, never synchronously.
    @raise Invalid_argument if an output sets a timer at a NaN time or
    before the clock reading the core was handed. *)

val apply : t -> now:float -> Node_core.output -> unit
(** Interpret one output of a [Node_core.handle] call made at [now], as
    {!dispatch} does for each of them.
    @raise Invalid_argument on a timer set at a NaN time or before [now]. *)

val set_tap : t -> (float -> Node_core.input -> Node_core.output list -> unit) option -> unit
(** Observe every [(now, input, outputs)] triple before interpretation —
    the hook the golden-trace recorder uses. *)
