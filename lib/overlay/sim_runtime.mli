(** The simulator-backed {!Runtime}: "now" is the engine's virtual clock,
    "send" charges the traffic meter and samples the virtual network,
    "set a timer" is an engine event.  Node_core + this runtime is, by
    construction and by the golden-trace equivalence tests, behaviourally
    identical to the pre-sans-IO monolithic node. *)

open Apor_sim

val create :
  engine:Apor_overlay_core.Message.t Engine.t ->
  core:Apor_overlay_core.Node_core.t ->
  ?on_recommend:(server_port:int -> dst_port:int -> hop_port:int -> unit) ->
  ?trace:(Apor_trace.Event.t -> unit) ->
  unit ->
  Apor_overlay_core.Runtime.t
(** Sends are stamped with the core's own port as source. *)
