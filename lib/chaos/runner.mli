(** Executing a {!Scenario} end to end and scoring the run.

    One run body serves both runtimes: it attaches the background
    workload through the shared {!Apor_dataplane.Host}, walks one agenda
    of injector actions and availability probes around every fault
    window, then measures staleness, view agreement, admitted joins and
    traffic/datagram conservation at the horizon and distills a
    {!Score}.  What stays per runtime is the injector's lowering
    (engine timers on the simulator, agenda actions on UDP), the
    availability predicate, and the UDP transport counters.

    Both build the overlay with the trace collector and the invariant
    {!Apor_trace.Oracle} (recording, not raising) attached.  Metric
    accumulation happens in collector {e subscribers}, not by querying
    the ring afterwards: engine events dominate volume and wrap the ring
    long before a scenario ends, while subscribers see every event. *)

type outcome = {
  score : Score.t;
  violations : Apor_trace.Oracle.violation list;  (** all, chronological *)
  passed : bool;  (** {!Score.passed} with the scenario's recovery flag *)
}

val run_sim :
  ?params:Apor_topology.Internet.params ->
  ?progress:(string -> unit) ->
  Scenario.t ->
  (outcome, string) result
(** Replay on the simulator: synthetic Internet from the scenario's
    [(seed, n)], paper-default quorum configuration, membership
    coordinator only when the scenario needs one, decentralized
    [Dynamic] membership when it declares members/kill/join events.
    Fully deterministic — same scenario, same bytes out of
    {!Score.to_json}. *)

val run_udp :
  ?base_port:int ->
  ?time_scale:float ->
  ?progress:(string -> unit) ->
  Scenario.t ->
  (outcome, string) result
(** Replay over real loopback UDP sockets with the compressed
    {!Apor_overlay_core.Config.deploy_local} timescales.  [time_scale]
    (default [1/30], the ratio of the deploy 0.5 s routing interval to
    the paper's 15 s) multiplies every scenario time; scores are
    converted back to scenario seconds.
    Node crashes close real sockets and restarts boot fresh cores that
    rejoin; membership scenarios run the runtime's [`Dynamic] mode, so
    kills are real socket closures and joins real quorum admissions.
    Errors: coordinator outages (the UDP runtime has no coordinator) and
    socket-less environments ([Error] with the errno text — callers
    treat it as a skip, matching [apor deploy-local]). *)
