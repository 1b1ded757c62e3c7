open Apor_linkstate

type algorithm = Full_mesh | Quorum

type t = {
  algorithm : algorithm;
  probe_interval_s : float;
  probes_for_failure : int;
  probe_timeout_s : float;
  rapid_probe_interval_s : float;
  routing_interval_s : float;
  staleness_windows : int;
  remote_failure_factor : float;
  ewma_alpha : float;
  metric : Metric.t;
  membership_refresh_s : float;
  centralized_membership : bool;
  relay_link_state : bool;
  delta_link_state : bool;
  incremental_rendezvous : bool;
}

let base =
  {
    algorithm = Quorum;
    probe_interval_s = 30.;
    probes_for_failure = 5;
    probe_timeout_s = 4.;
    rapid_probe_interval_s = 6.;
    routing_interval_s = 15.;
    staleness_windows = 3;
    remote_failure_factor = 2.5;
    ewma_alpha = 0.5;
    metric = Metric.Latency;
    membership_refresh_s = 1800.;
    centralized_membership = false;
    relay_link_state = false;
    delta_link_state = true;
    incremental_rendezvous = true;
  }

let quorum_default = base
let ron_default = { base with algorithm = Full_mesh; routing_interval_s = 30. }

(* Same parameter ratios as the paper, 30x faster: a few wall seconds on
   loopback span many probing and routing cycles. *)
let deploy_local =
  {
    base with
    probe_interval_s = 1.0;
    probes_for_failure = 3;
    probe_timeout_s = 0.2;
    rapid_probe_interval_s = 0.25;
    routing_interval_s = 0.5;
    membership_refresh_s = 60.;
  }

let staleness_s t = float_of_int t.staleness_windows *. t.routing_interval_s

let full_table t = { t with delta_link_state = false; incremental_rendezvous = false }

let with_routing_interval t r = { t with routing_interval_s = r }

let validate t =
  let check cond msg = if cond then Ok () else Error msg in
  let ( let* ) = Result.bind in
  let* () = check (t.probe_interval_s > 0.) "probe interval must be positive" in
  let* () = check (t.routing_interval_s > 0.) "routing interval must be positive" in
  let* () = check (t.probes_for_failure >= 1) "need at least one probe for failure" in
  let* () =
    check
      (t.probe_timeout_s > 0. && t.probe_timeout_s <= t.rapid_probe_interval_s)
      "probe timeout must be positive and at most the rapid probing interval"
  in
  let* () = check (t.staleness_windows >= 1) "staleness window must be >= 1 interval" in
  let* () = check (t.remote_failure_factor >= 1.) "remote failure factor must be >= 1" in
  check (t.ewma_alpha >= 0. && t.ewma_alpha < 1.) "ewma alpha must lie in [0, 1)"
