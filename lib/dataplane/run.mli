(** Canned data-plane runs: build a runtime, attach a workload, run,
    check invariants, report — the engine behind [apor traffic] and the
    dataplane bench/CI gates.

    Both runs attach the full oracle (quorum intersection, one-hop
    optimality, traffic conservation) plus the datagram-conservation
    check, and fold the verdicts into the report.  The sim run is
    byte-deterministic: equal arguments produce byte-identical [json]. *)

val observe : Apor_overlay_core.Config.t -> Apor_trace.Collector.t * Apor_trace.Oracle.t
(** A fresh trace collector with the full oracle attached, recording
    rather than raising, at the configuration's metric and staleness. *)

type report = {
  json : string;  (** one JSON object, newline-terminated *)
  sent : int;
  delivered : int;
  goodput_kbps : float;
  violations : int;  (** all oracle violations *)
  conservation_violations : int;
      (** traffic- plus datagram-conservation violations only — the gate
          CI trips on (quorum breaks under injected churn are expected;
          losing bytes or datagrams never is) *)
}

val run_sim :
  ?n:int ->
  ?seed:int ->
  ?duration_s:float ->
  ?warmup_s:float ->
  ?spec:Workload.spec ->
  ?churn:bool ->
  unit ->
  report
(** Virtual-time run on {!Apor_overlay.Cluster} (defaults: n = 144,
    seed = 1, 300 virtual seconds after a 120 s warmup, the default
    workload, no churn).  [churn] installs the PlanetLab failure
    profile.  The driver stops at the horizon and the engine drains
    briefly so in-flight datagrams settle before conservation is
    checked. *)

val run_udp :
  ?n:int ->
  ?seed:int ->
  ?duration_s:float ->
  ?warmup_s:float ->
  ?base_port:int ->
  ?spec:Workload.spec ->
  unit ->
  (report, string) result
(** Wall-clock run on {!Apor_deploy.Udp_runtime} over loopback
    (defaults: n = 8, seed = 1, 6 s of traffic after a 3 s control-plane
    warmup, base port 9400), with the deploy-local compressed protocol
    timescales.  [Error] (with a message starting ["sockets unavailable"])
    when loopback sockets cannot be bound — sandboxed CI skips on it. *)
