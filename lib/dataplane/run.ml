module Config = Apor_overlay_core.Config
module Cluster = Apor_overlay.Cluster
module Udp = Apor_deploy.Udp_runtime
module Internet = Apor_topology.Internet
module Failures = Apor_topology.Failures
module Collector = Apor_trace.Collector
module Oracle = Apor_trace.Oracle

type report = {
  json : string;
  sent : int;
  delivered : int;
  goodput_kbps : float;
  violations : int;
  conservation_violations : int;
}

let conservation_count oracle =
  List.length
    (List.filter
       (fun (v : Oracle.violation) ->
         match v.Oracle.check with
         | Oracle.Traffic_conservation | Oracle.Datagram_conservation -> true
         | Oracle.Quorum_intersection | Oracle.One_hop_optimality
         | Oracle.View_agreement ->
             false)
       (Oracle.violations oracle))

let observe config =
  let trace = Collector.create ~capacity:(1 lsl 18) () in
  let oracle =
    Oracle.create ~raise_on_violation:false ~metric:config.Config.metric
      ~staleness_s:(Config.staleness_s config) ()
  in
  Oracle.attach oracle trace;
  (trace, oracle)

(* The one run body: traffic from [warmup_s] after now for [duration_s],
   then a drain so in-flight datagrams land before conservation is
   judged. *)
let drive (host : Host.t) ~runtime ~spec ~seed ~trace ~oracle ~window_s ~warmup_s ~duration_s
    ~drain_s =
  let start_at = host.now () +. warmup_s in
  let metrics = Metrics.create ~window_s ~t0:start_at in
  let driver = Driver.attach host ~spec ~seed ~metrics ~trace ~start_at () in
  let horizon = start_at +. duration_s in
  host.run_until horizon;
  Driver.stop driver;
  host.run_until (horizon +. drain_s);
  let now = host.now () in
  Oracle.check_traffic oracle ~n:host.accounted_ports ~accounted:host.accounted_bytes ~now;
  Oracle.check_datagrams oracle ~sent:(Driver.sent driver) ~delivered:(Driver.delivered driver)
    ~now;
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '{';
  Buffer.add_string buf
    (Metrics.json_fields metrics ~runtime
       ~shape:(Workload.shape_to_string spec.Workload.shape)
       ~n:host.n ~t1:horizon);
  Printf.bprintf buf
    ",\"oracle\":{\"violations\":%d,\"conservation_violations\":%d,\"dgrams_sent\":%d,\"dgrams_delivered\":%d}}\n"
    (Oracle.violation_count oracle) (conservation_count oracle) (Oracle.dgrams_sent oracle)
    (Oracle.dgrams_delivered oracle);
  {
    json = Buffer.contents buf;
    sent = Metrics.sent metrics;
    delivered = Metrics.delivered metrics;
    goodput_kbps = Metrics.goodput_kbps metrics ~t1:horizon;
    violations = Oracle.violation_count oracle;
    conservation_violations = conservation_count oracle;
  }

let run_sim ?(n = 144) ?(seed = 1) ?(duration_s = 300.) ?(warmup_s = 120.)
    ?(spec = Workload.default) ?(churn = false) () =
  let config = Config.quorum_default in
  let world = Internet.generate ~seed ~n () in
  let trace, oracle = observe config in
  let cluster =
    Cluster.create ~config ~rtt_ms:world.Internet.rtt_ms ~loss:world.Internet.loss ~trace
      ~seed ()
  in
  if churn then
    ignore
      (Failures.install ~engine:(Cluster.engine cluster) ~profile:Failures.planetlab ~seed ()
        : Failures.t);
  Cluster.start cluster;
  drive (Host.of_cluster cluster) ~runtime:"sim" ~spec ~seed ~trace ~oracle ~window_s:10.
    ~warmup_s ~duration_s ~drain_s:5.

let run_udp ?(n = 8) ?(seed = 1) ?(duration_s = 6.) ?(warmup_s = 3.) ?(base_port = 9400)
    ?(spec = Workload.default) () =
  let config = Config.deploy_local in
  let trace, oracle = observe config in
  match Udp.create ~config ~n ~base_port ~trace ~seed () with
  | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "sockets unavailable (%s in %s)" (Unix.error_message err) fn)
  | udp ->
      Udp.start udp;
      let report =
        drive (Host.of_udp udp) ~runtime:"udp" ~spec ~seed ~trace ~oracle ~window_s:1.
          ~warmup_s ~duration_s ~drain_s:0.5
      in
      Udp.close udp;
      Ok report
