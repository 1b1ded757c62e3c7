(* lib/dataplane contracts:

   - the Packet wire codec round-trips every field and is total on
     hostile input (mirroring the control Frame fuzz suite) — batched
     frames parse back to back and a corrupt frame stops the parse at a
     frame boundary;
   - Message.Dgram (the simulator carrier) round-trips through the
     Message codec and converts losslessly to/from Packet;
   - the workload generator is a pure function of its seed: same seed,
     same arrival/pair stream; the shape grammar parses what
     shape_to_string prints;
   - metrics attribute loss to send windows and report the worst one;
   - end to end on the simulator: a short oracle-attached run delivers
     datagrams with zero conservation violations, and equal seeds
     produce byte-identical report JSON;
   - closed-loop flows time out exactly Flows.timeout_s after each send,
     ignore deliveries that arrive after their timeout, and hold a
     bounded number of timers whatever their rate, on both runtimes;
   - the one driver, over a fake host with a hand-driven clock: the hop
     budget drops, the intermediate relays straight to the destination,
     a duplicated arrival counts once, open-loop arrivals keep their due
     times when timers fire late, and a packet naming a port outside the
     overlay is rejected — over real sockets too, where it used to raise
     out of the runtime's loop. *)

open Apor_util
module Packet = Apor_dataplane.Packet
module Workload = Apor_dataplane.Workload
module Metrics = Apor_dataplane.Metrics
module Run = Apor_dataplane.Run
module Message = Apor_overlay_core.Message

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- packet codec -------------------------------------------------------- *)

let gen_packet =
  QCheck.Gen.(
    let* id = int_range 0 0xFFFFFFFF in
    let* origin = int_range 0 0xFFFF in
    let* dst = int_range 0 0xFFFF in
    let* hops = int_range 0 0xFF in
    let* sent_at_us = int_range 0 0xFFFFFFFFFFFF in
    let* payload_len = int_range 0 0xFFFF in
    return { Packet.id; origin; dst; hops; sent_at_us; payload_len })

let packet_roundtrip_qcheck =
  QCheck.Test.make ~count:500 ~name:"Packet round-trips every field"
    (QCheck.make gen_packet ~print:(Format.asprintf "%a" Packet.pp))
    (fun p ->
      match Packet.decode (Packet.encode p) with
      | Ok q -> Packet.equal p q
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let small_packet =
  QCheck.Gen.(
    let* id = int_range 0 1000 in
    let* origin = int_range 0 64 in
    let* dst = int_range 0 64 in
    let* hops = int_range 0 4 in
    let* sent_at_us = int_range 0 1_000_000 in
    let* payload_len = int_range 0 64 in
    return { Packet.id; origin; dst; hops; sent_at_us; payload_len })

let gen_hostile_packet =
  QCheck.Gen.(
    let arbitrary =
      let* s = string_size (int_range 0 128) in
      return (Bytes.of_string s)
    in
    let from_valid =
      let* p = small_packet in
      let buf = Packet.encode p in
      let len = Bytes.length buf in
      oneof
        [
          (let* cut = int_range 0 (len - 1) in
           return (Bytes.sub buf 0 cut));
          (let* pos = int_range 0 (len - 1) in
           let* v = int_range 0 255 in
           let b = Bytes.copy buf in
           Bytes.set_uint8 b pos v;
           return b);
          (let* extra = string_size (int_range 1 16) in
           return (Bytes.cat buf (Bytes.of_string extra)));
        ]
    in
    oneof [ arbitrary; from_valid ])

let packet_decode_total_qcheck =
  QCheck.Test.make ~count:3000 ~name:"Packet.decode_from is total on hostile input"
    (QCheck.make gen_hostile_packet ~print:(fun b ->
         let buf = Buffer.create (2 * Bytes.length b) in
         Bytes.iter
           (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c)))
           b;
         Buffer.contents buf))
    (fun b ->
      match Packet.decode_from b ~pos:0 ~limit:(Bytes.length b) with
      | Ok _ | Error _ -> true)

let test_packet_truncation () =
  let p =
    { Packet.id = 7; origin = 1; dst = 2; hops = 0; sent_at_us = 42; payload_len = 16 }
  in
  let buf = Packet.encode p in
  (* every proper prefix must fail cleanly *)
  for cut = 0 to Bytes.length buf - 1 do
    match Packet.decode_from buf ~pos:0 ~limit:cut with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d bytes decoded" cut
  done;
  (* bad magic and bad version *)
  let bad = Bytes.copy buf in
  Bytes.set_uint8 bad 0 0xA9;
  (match Packet.decode bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "control magic decoded as data");
  let bad = Bytes.copy buf in
  Bytes.set_uint8 bad 1 99;
  match Packet.decode bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown version decoded"

let test_packet_batch () =
  let mk id =
    { Packet.id; origin = id; dst = id + 1; hops = 1; sent_at_us = 1000 * id;
      payload_len = 8 + id }
  in
  let ps = [ mk 1; mk 2; mk 3 ] in
  let total = List.fold_left (fun s p -> s + Packet.size p) 0 ps in
  let buf = Bytes.create total in
  let _ =
    List.fold_left
      (fun pos p ->
        Packet.encode_into p buf ~pos;
        pos + Packet.size p)
      0 ps
  in
  (* parse all three back to back *)
  let rec parse pos acc =
    if pos >= total then List.rev acc
    else
      match Packet.decode_from buf ~pos ~limit:total with
      | Ok (p, next) -> parse next (p :: acc)
      | Error e -> Alcotest.failf "batch parse failed at %d: %s" pos e
  in
  let out = parse 0 [] in
  check_int "batch count" 3 (List.length out);
  List.iter2 (fun a b -> check_bool "batch packet" true (Packet.equal a b)) ps out;
  (* corrupt the second frame's magic: the parse stops there, keeping
     the first frame — the consumed-prefix contract of the data sink *)
  let cut = Packet.size (mk 1) in
  Bytes.set_uint8 buf cut 0x00;
  (match Packet.decode_from buf ~pos:0 ~limit:total with
  | Ok (p, next) ->
      check_bool "first frame survives" true (Packet.equal p (mk 1));
      check_int "stops at corrupt frame" cut next
  | Error e -> Alcotest.failf "first frame should parse: %s" e);
  match Packet.decode_from buf ~pos:cut ~limit:total with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt frame decoded"

let dgram_conversion_qcheck =
  QCheck.Test.make ~count:500 ~name:"Packet <-> Message.Dgram is lossless"
    (QCheck.make gen_packet ~print:(Format.asprintf "%a" Packet.pp))
    (fun p ->
      match Packet.of_dgram (Packet.to_dgram p) with
      | Some q -> Packet.equal p q
      | None -> false)

let dgram_message_codec_qcheck =
  QCheck.Test.make ~count:500 ~name:"Message.Dgram round-trips the Message codec"
    (QCheck.make small_packet ~print:(Format.asprintf "%a" Packet.pp))
    (fun p ->
      let msg = Packet.to_dgram p in
      match Message.decode (Message.encode msg) with
      | Ok m -> Message.equal msg m
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* --- workload ------------------------------------------------------------ *)

let test_shape_grammar () =
  (match Workload.parse_shape "constant" with
  | Ok Workload.Constant -> ()
  | _ -> Alcotest.fail "constant");
  (match Workload.parse_shape "diurnal:period=300,trough=0.5" with
  | Ok (Workload.Diurnal { period_s; trough }) ->
      check_bool "period" true (period_s = 300.);
      check_bool "trough" true (trough = 0.5)
  | _ -> Alcotest.fail "diurnal");
  (match Workload.parse_shape "flash:at=10,dur=5,boost=3" with
  | Ok (Workload.Flash_crowd { at_s = 10.; duration_s = 5.; boost = 3. }) -> ()
  | _ -> Alcotest.fail "flash");
  (* defaults *)
  (match Workload.parse_shape "diurnal" with
  | Ok (Workload.Diurnal { period_s = 600.; trough = 0.2 }) -> ()
  | _ -> Alcotest.fail "diurnal defaults");
  (* rejects *)
  List.iter
    (fun s ->
      match Workload.parse_shape s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "square"; "diurnal:period=0"; "diurnal:trough=2"; "flash:boost=-1";
      "constant:x=1"; "diurnal:period=abc" ];
  (* shape_to_string is inverse-parseable *)
  List.iter
    (fun sh ->
      match Workload.parse_shape (Workload.shape_to_string sh) with
      | Ok sh' -> check_bool "inverse parse" true (sh = sh')
      | Error e -> Alcotest.failf "inverse parse failed: %s" e)
    [
      Workload.Constant;
      Workload.Diurnal { period_s = 300.; trough = 0.25 };
      Workload.Flash_crowd { at_s = 60.; duration_s = 30.; boost = 5. };
    ]

let test_workload_determinism () =
  let mk () =
    Workload.create ~spec:Workload.default ~n:20
      ~rng:(Rng.split (Rng.make ~seed:42) "dataplane.workload")
  in
  let a = mk () and b = mk () in
  for i = 0 to 999 do
    let pa = Workload.pick_pair a and pb = Workload.pick_pair b in
    if pa <> pb then Alcotest.failf "pair stream diverged at %d" i;
    let da = Workload.next_delay a ~now:(float_of_int i)
    and db = Workload.next_delay b ~now:(float_of_int i) in
    if da <> db then Alcotest.failf "delay stream diverged at %d" i;
    let src, dst = pa in
    if src = dst || src < 0 || src >= 20 || dst < 0 || dst >= 20 then
      Alcotest.failf "bad pair (%d, %d)" src dst
  done

let test_shape_factor () =
  (* diurnal stays within [trough, 1] and hits both ends *)
  let sh = Workload.Diurnal { period_s = 100.; trough = 0.3 } in
  let lo = ref infinity and hi = ref neg_infinity in
  for i = 0 to 200 do
    let f = Workload.factor sh ~now:(float_of_int i) in
    if f < 0.3 -. 1e-9 || f > 1. +. 1e-9 then Alcotest.failf "diurnal factor %f" f;
    lo := Float.min !lo f;
    hi := Float.max !hi f
  done;
  check_bool "reaches trough" true (!lo < 0.31);
  check_bool "reaches peak" true (!hi > 0.99);
  let fl = Workload.Flash_crowd { at_s = 10.; duration_s = 5.; boost = 4. } in
  check_bool "before flash" true (Workload.factor fl ~now:9.9 = 1.);
  check_bool "inside flash" true (Workload.factor fl ~now:12. = 4.);
  check_bool "after flash" true (Workload.factor fl ~now:15.1 = 1.)

(* --- metrics -------------------------------------------------------------- *)

let test_metrics_windows () =
  let m = Metrics.create ~window_s:10. ~t0:0. in
  (* window 0: 4 sent, 4 delivered; window 1: 5 sent, 2 delivered *)
  for i = 0 to 3 do
    Metrics.record_sent m ~now:(float_of_int i);
    Metrics.record_delivered m ~now:(float_of_int i +. 0.05)
      ~sent_at:(float_of_int i) ~payload:100 ~direct_s:(Some 0.025) ~hops:1
  done;
  for i = 0 to 4 do
    Metrics.record_sent m ~now:(12. +. float_of_int i)
  done;
  Metrics.record_delivered m ~now:13.1 ~sent_at:13. ~payload:100 ~direct_s:None ~hops:0;
  (* a late delivery credits the window it was SENT in *)
  Metrics.record_delivered m ~now:25. ~sent_at:14. ~payload:100 ~direct_s:None ~hops:0;
  check_int "sent" 9 (Metrics.sent m);
  check_int "delivered" 6 (Metrics.delivered m);
  (match Metrics.worst_window m with
  | Some (loss, w0) ->
      check_bool "worst window loss" true (Float.abs (loss -. 0.6) < 1e-9);
      check_bool "worst window start" true (w0 = 10.)
  | None -> Alcotest.fail "no worst window");
  check_bool "overall loss" true
    (Float.abs (Metrics.loss_overall m -. (3. /. 9.)) < 1e-9);
  (* goodput: 600 bytes over 20 s = 0.24 kbps *)
  check_bool "goodput" true
    (Float.abs (Metrics.goodput_kbps m ~t1:20. -. 0.24) < 1e-9);
  (* stretch: latency 0.05 over direct 0.025 = 2.0, within bin resolution *)
  match Metrics.stretch_percentile m 50. with
  | Some s -> check_bool "stretch p50 near 2" true (s > 1.8 && s < 2.2)
  | None -> Alcotest.fail "no stretch samples"

let test_metrics_percentiles () =
  let m = Metrics.create ~window_s:10. ~t0:0. in
  (* 100 deliveries at 10 ms, 1 at 1 s: p50 near 0.01, p999 near 1 *)
  for i = 0 to 99 do
    let t = float_of_int i in
    Metrics.record_sent m ~now:t;
    Metrics.record_delivered m ~now:(t +. 0.01) ~sent_at:t ~payload:10 ~direct_s:None
      ~hops:0
  done;
  Metrics.record_sent m ~now:200.;
  Metrics.record_delivered m ~now:201. ~sent_at:200. ~payload:10 ~direct_s:None ~hops:0;
  (match Metrics.latency_percentile m 50. with
  | Some p -> check_bool "p50 near 10ms" true (p > 0.008 && p < 0.012)
  | None -> Alcotest.fail "no p50");
  match Metrics.latency_percentile m 99.9 with
  | Some p -> check_bool "p999 near 1s" true (p > 0.8 && p < 1.25)
  | None -> Alcotest.fail "no p999"

(* --- end to end on the simulator ----------------------------------------- *)

let small_spec = { Workload.default with Workload.rate_pps = 100. }

let test_sim_smoke () =
  let r = Run.run_sim ~n:16 ~seed:7 ~duration_s:40. ~spec:small_spec ~churn:true () in
  check_bool "delivered datagrams" true (r.Run.delivered > 0);
  check_bool "sent >= delivered" true (r.Run.sent >= r.Run.delivered);
  check_int "conservation violations" 0 r.Run.conservation_violations;
  check_bool "positive goodput" true (r.Run.goodput_kbps > 0.)

let test_sim_deterministic_json () =
  let go () = Run.run_sim ~n:12 ~seed:3 ~duration_s:30. ~spec:small_spec ~churn:true () in
  let a = go () and b = go () in
  check_bool "byte-identical JSON" true (String.equal a.Run.json b.Run.json)

(* --- closed loop on the simulator ------------------------------------------- *)

module Cluster = Apor_overlay.Cluster
module Collector = Apor_trace.Collector
module Ev = Apor_trace.Event
module Flows = Apor_dataplane.Flows
module Sim_driver = Apor_dataplane.Sim_driver

let closed_spec ~window ~think_s =
  {
    Workload.default with
    Workload.mode = Workload.Closed_loop { window; think_s };
    rate_pps = 1000.;
  }

type closed_run = {
  sends : float list;  (** [Dgram_sent] times, in order *)
  dgram_delivered : int;  (** [Dgram_delivered] events *)
  data_arrivals : int;  (** Data-class packets the network delivered *)
  driver_sent : int;
  driver_delivered : int;
  metrics_delivered : int;
}

(* A closed loop of [window] flows from t=30 to t=59.5 on a flat [n]-node
   network: every link has one round-trip time and one loss rate. *)
let flat_closed_loop ~rtt_ms ~loss ~window =
  let n = 6 in
  let flat v = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else v)) in
  let trace = Collector.create () in
  let sends = ref [] and dgram_delivered = ref 0 and data_arrivals = ref 0 in
  Collector.subscribe trace (fun tv ->
      match tv.Collector.event with
      | Ev.Dgram_sent _ -> sends := tv.Collector.time :: !sends
      | Ev.Dgram_delivered _ -> incr dgram_delivered
      | Ev.Deliver { cls = Msgclass.Data; _ } -> incr data_arrivals
      | _ -> ());
  let cluster =
    Cluster.create ~config:Apor_overlay_core.Config.quorum_default ~rtt_ms:(flat rtt_ms)
      ~loss:(flat loss) ~trace ~seed:11 ()
  in
  Cluster.start cluster;
  let metrics = Metrics.create ~window_s:10. ~t0:30. in
  let driver =
    Sim_driver.attach ~cluster ~spec:(closed_spec ~window ~think_s:0.001) ~seed:11 ~metrics
      ~trace ~start_at:30. ()
  in
  Cluster.run_until cluster 59.5;
  {
    sends = List.rev !sends;
    dgram_delivered = !dgram_delivered;
    data_arrivals = !data_arrivals;
    driver_sent = Sim_driver.sent driver;
    driver_delivered = Sim_driver.delivered driver;
    metrics_delivered = Metrics.delivered metrics;
  }

(* When no datagram is ever delivered in time, every send but a flow's
   first comes exactly [Flows.timeout_s] after the send it replaces.
   Chaining each send to the one it continues must leave exactly [window]
   chains (one per flow, so a flow never has two datagrams outstanding),
   and nothing else may send. *)
let check_timeout_chains ~window sends =
  let next_due = Hashtbl.create 64 in
  let starts = ref 0 in
  List.iter
    (fun s ->
      (match Hashtbl.find_opt next_due s with
      | Some k when k > 0 -> Hashtbl.replace next_due s (k - 1)
      | Some _ | None -> incr starts);
      let due = s +. Flows.timeout_s in
      Hashtbl.replace next_due due (1 + Option.value ~default:0 (Hashtbl.find_opt next_due due)))
    sends;
  check_int "flows (chains of sends timeout_s apart)" window !starts;
  (* 29.5 s of traffic, a send every 5 s per flow: six per flow *)
  check_int "sends" (6 * window) (List.length sends)

let test_closed_loop_timeout_exact () =
  let window = 8 in
  let r = flat_closed_loop ~rtt_ms:40. ~loss:1.0 ~window in
  check_int "driver count = trace count" r.driver_sent (List.length r.sends);
  check_int "nothing delivered" 0 r.driver_delivered;
  check_timeout_chains ~window r.sends

(* One-way delay 6 s: every datagram arrives a second after its flow
   timed it out.  The arrival must count nowhere and must not resume the
   flow, which has already sent again. *)
let test_closed_loop_late_delivery () =
  let window = 8 in
  let r = flat_closed_loop ~rtt_ms:12_000. ~loss:0. ~window in
  check_bool "late datagrams did arrive" true (r.data_arrivals > 0);
  check_int "driver delivered" 0 r.driver_delivered;
  check_int "metrics delivered" 0 r.metrics_delivered;
  check_int "Dgram_delivered events" 0 r.dgram_delivered;
  check_timeout_chains ~window r.sends

(* Each flow holds at most one timeout timer plus one other event (its
   datagram in flight or its think timer), so a closed loop adds at most
   a few events per flow to the engine's queue, whatever its rate.  A
   timer per datagram would add rate x timeout_s. *)
let test_closed_loop_pending_bounded () =
  let window = 32 in
  let peak ~traffic =
    let world = Apor_topology.Internet.generate ~seed:4 ~n:16 () in
    let cluster =
      Cluster.create ~config:Apor_overlay_core.Config.quorum_default
        ~rtt_ms:world.Apor_topology.Internet.rtt_ms ~loss:world.Apor_topology.Internet.loss
        ~seed:4 ()
    in
    Cluster.start cluster;
    if traffic then begin
      let metrics = Metrics.create ~window_s:10. ~t0:30. in
      ignore
        (Sim_driver.attach ~cluster ~spec:(closed_spec ~window ~think_s:0.001) ~seed:4
           ~metrics ~start_at:30. ()
          : Sim_driver.t)
    end;
    Cluster.run_until cluster 60.;
    (Cluster.engine_stats cluster).Apor_sim.Engine.max_pending
  in
  let quiet = peak ~traffic:false and busy = peak ~traffic:true in
  if busy - quiet > 3 * window then
    Alcotest.failf "closed loop raised peak pending events from %d to %d (bound +%d)" quiet busy
      (3 * window)

(* --- the driver over a fake host ------------------------------------------ *)

module Host = Apor_dataplane.Host
module Driver = Apor_dataplane.Driver

(* A host with a hand-driven clock: every timer fires [lateness] seconds
   after it is due, sends are recorded instead of delivered, and arrivals
   are injected through the sink the driver installs. *)
type fake = {
  mutable clock : float;
  mutable timers : (float * (unit -> unit)) list;
  mutable wire : (int * Packet.t) list; (* next hop and packet, newest first *)
  mutable sink : (now:float -> node:int -> Packet.t -> bool) option;
  lateness : float;
}

let fake_host ?(lateness = 0.) ~n () =
  let f = { clock = 0.; timers = []; wire = []; sink = None; lateness } in
  let rec run_until horizon =
    let due = List.sort (fun (a, _) (b, _) -> compare a b) f.timers in
    match due with
    | (at, g) :: rest when at +. f.lateness <= horizon ->
        f.timers <- rest;
        f.clock <- Float.max f.clock (at +. f.lateness);
        g ();
        run_until horizon
    | _ -> f.clock <- Float.max f.clock horizon
  in
  let host =
    {
      Host.n;
      now = (fun () -> f.clock);
      schedule_at = (fun at g -> f.timers <- (at, g) :: f.timers);
      run_until;
      best_hop = (fun ~now:_ ~src:_ ~dst:_ -> None);
      freshness = (fun ~now:_ ~src:_ ~dst:_ -> None);
      current_view = (fun _ -> None);
      accounted_ports = n;
      accounted_bytes = (fun _ -> 0);
      send = (fun ~src:_ ~dst p -> f.wire <- (dst, p) :: f.wire);
      set_sink = (fun sink -> f.sink <- Some sink);
      baseline = Host.Min_zero_hop;
      think_floor_s = 0.;
    }
  in
  (f, host)

let arrive f ~node p =
  match f.sink with
  | Some sink -> sink ~now:f.clock ~node p
  | None -> Alcotest.fail "no sink installed"

let pkt ?(id = 7) ?(origin = 0) ?(dst = 3) hops =
  { Packet.id; origin; dst; hops; sent_at_us = 0; payload_len = 16 }

(* A driver whose workload never starts: arrivals are all injected. *)
let idle_driver host =
  let metrics = Metrics.create ~window_s:1. ~t0:0. in
  let d = Driver.attach host ~spec:small_spec ~seed:1 ~metrics ~start_at:1e9 () in
  (d, metrics)

let test_driver_hop_budget () =
  let f, host = fake_host ~n:4 () in
  let _, metrics = idle_driver host in
  check_bool "accepted" true (arrive f ~node:2 (pkt Packet.max_hops));
  check_int "dropped" 1 (Metrics.dropped metrics);
  check_int "nothing relayed" 0 (List.length f.wire);
  ignore (arrive f ~node:2 (pkt (Packet.max_hops - 1)) : bool);
  check_int "one under the budget is relayed" 1 (List.length f.wire);
  check_int "still one drop" 1 (Metrics.dropped metrics)

let test_driver_relay () =
  let f, host = fake_host ~n:4 () in
  ignore (idle_driver host);
  ignore (arrive f ~node:1 (pkt ~origin:0 ~dst:3 0) : bool);
  match f.wire with
  | [ (next, p) ] ->
      check_int "straight to the destination" 3 next;
      check_int "hops incremented" 1 p.Packet.hops;
      check_int "same id" 7 p.Packet.id;
      check_int "same origin" 0 p.Packet.origin
  | _ -> Alcotest.fail "expected exactly one relayed packet"

let test_driver_duplicate () =
  let f, host = fake_host ~n:4 () in
  let metrics = Metrics.create ~window_s:1. ~t0:0. in
  let d = Driver.attach host ~spec:small_spec ~seed:1 ~metrics () in
  Driver.stop d;
  match f.wire with
  | [ (next, p) ] ->
      check_int "sent direct" p.Packet.dst next;
      f.clock <- 0.01;
      ignore (arrive f ~node:next p : bool);
      ignore (arrive f ~node:next p : bool);
      check_int "sent" 1 (Driver.sent d);
      check_int "delivered once" 1 (Driver.delivered d);
      check_int "metrics delivered once" 1 (Metrics.delivered metrics)
  | _ -> Alcotest.fail "expected exactly one originated datagram"

(* The same seed on a punctual host and on one whose timers all fire
   50 ms late: every send after the first (made at attach, not by a
   timer) happens exactly that much later, so the schedule does not
   drift by a lateness per arrival. *)
let test_driver_open_loop_due_times () =
  let send_times ~lateness =
    let f, host = fake_host ~lateness ~n:4 () in
    let metrics = Metrics.create ~window_s:1. ~t0:0. in
    let d = Driver.attach host ~spec:small_spec ~seed:3 ~metrics () in
    host.Host.run_until 2.;
    Driver.stop d;
    List.rev_map (fun (_, p) -> p.Packet.sent_at_us) f.wire
  in
  let punctual = send_times ~lateness:0. and late = send_times ~lateness:0.05 in
  check_bool "about 200 arrivals" true (List.length punctual > 150);
  let late_prefix = List.filteri (fun i _ -> i < List.length late) punctual in
  check_bool "late host sends all but its last 50 ms" true
    (List.length late >= List.length punctual - 15);
  List.iteri
    (fun i (a, b) ->
      if i > 0 && abs (b - a - 50_000) > 1 then
        Alcotest.failf "send %d: %d us late, expected 50000" i (b - a))
    (List.combine late_prefix late)

let test_driver_stray_port () =
  let f, host = fake_host ~n:4 () in
  let d, metrics = idle_driver host in
  check_bool "dst outside the overlay" false (arrive f ~node:1 (pkt ~dst:0xFFFF 0));
  check_bool "origin outside the overlay" false (arrive f ~node:3 (pkt ~origin:4 ~dst:3 0));
  check_int "nothing relayed" 0 (List.length f.wire);
  check_int "nothing dropped" 0 (Metrics.dropped metrics);
  check_int "nothing delivered" 0 (Driver.delivered d);
  check_bool "in range is accepted" true (arrive f ~node:1 (pkt ~dst:3 0))

(* --- open loop on the real transport ---------------------------------------- *)

(* Wall-clock timers fire late; an open loop that scheduled each arrival
   from when its callback ran would fall behind its offered rate.  At a
   fixed rate it must send at least 90% of rate x duration.  Socket-less
   sandboxes make this skip, like the udp tests in test_chaos. *)
let test_udp_open_loop_rate () =
  let module Udp = Apor_deploy.Udp_runtime in
  let config = Apor_overlay_core.Config.deploy_local in
  match Udp.create ~config ~n:4 ~base_port:9420 ~seed:5 () with
  | exception Unix.Unix_error _ -> ()
  | udp ->
      Fun.protect
        ~finally:(fun () -> Udp.close udp)
        (fun () ->
          Udp.start udp;
          Udp.run udp ~duration:0.3;
          let rate = 5000. and duration = 2. in
          let spec = { Workload.default with Workload.rate_pps = rate } in
          let metrics = Metrics.create ~window_s:1. ~t0:(Udp.now udp) in
          let driver = Apor_dataplane.Udp_driver.attach ~udp ~spec ~seed:5 ~metrics () in
          Udp.run udp ~duration;
          Apor_dataplane.Udp_driver.stop driver;
          let sent = Apor_dataplane.Udp_driver.sent driver in
          if float_of_int sent < 0.9 *. rate *. duration then
            Alcotest.failf "open loop sent %d datagrams, below 90%% of %.0f" sent
              (rate *. duration))

(* A closed loop at think 1 ms sends tens of thousands of datagrams a
   second here.  Its flows must still hold at most a couple of timers
   each, so the runtime's timer heap stays within a bound set by the
   window and the control plane, not by the offered rate. *)
let test_udp_closed_loop_timers () =
  let module Udp = Apor_deploy.Udp_runtime in
  let config = Apor_overlay_core.Config.deploy_local in
  match Udp.create ~config ~n:4 ~base_port:9430 ~seed:6 () with
  | exception Unix.Unix_error _ -> ()
  | udp ->
      Fun.protect
        ~finally:(fun () -> Udp.close udp)
        (fun () ->
          let peak_timers ~duration =
            let peak = ref (Udp.pending_timers udp) in
            let steps = int_of_float (duration /. 0.01) in
            for _ = 1 to steps do
              Udp.run udp ~duration:0.01;
              peak := max !peak (Udp.pending_timers udp)
            done;
            !peak
          in
          Udp.start udp;
          let control = peak_timers ~duration:0.3 in
          let window = 64 in
          let metrics = Metrics.create ~window_s:1. ~t0:(Udp.now udp) in
          let driver =
            Apor_dataplane.Udp_driver.attach ~udp
              ~spec:(closed_spec ~window ~think_s:0.001)
              ~seed:6 ~metrics ()
          in
          let busy = peak_timers ~duration:2. in
          Apor_dataplane.Udp_driver.stop driver;
          let delivered = Apor_dataplane.Udp_driver.delivered driver in
          check_bool "datagrams delivered" true (delivered > 0);
          if busy > control + (3 * window) then
            Alcotest.failf "%d delivered; pending timers peaked at %d (control plane %d, bound +%d)"
              delivered busy control (3 * window))

(* One data packet addressed to port 0xFFFF, sent from outside the
   overlay to a live node, must be counted undecodable — not relayed into
   [Udp_runtime.send_data], which raises on the out-of-range port. *)
let test_udp_stray_datagram () =
  let module Udp = Apor_deploy.Udp_runtime in
  let config = Apor_overlay_core.Config.deploy_local in
  let base_port = 9440 in
  match Udp.create ~config ~n:4 ~base_port ~seed:7 () with
  | exception Unix.Unix_error _ -> ()
  | udp ->
      Fun.protect
        ~finally:(fun () -> Udp.close udp)
        (fun () ->
          Udp.start udp;
          let metrics = Metrics.create ~window_s:1. ~t0:(Udp.now udp) in
          let driver =
            Apor_dataplane.Udp_driver.attach ~udp ~spec:small_spec ~seed:7 ~metrics
              ~start_at:1e9 ()
          in
          let stray = Packet.encode (pkt ~origin:0 ~dst:0xFFFF 0) in
          let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close sock)
            (fun () ->
              ignore
                (Unix.sendto sock stray 0 (Bytes.length stray) []
                   (Unix.ADDR_INET (Unix.inet_addr_loopback, base_port + 1))
                  : int));
          Udp.run udp ~duration:0.2;
          check_int "counted undecodable" 1 (Udp.undecodable udp 1);
          check_int "nothing delivered" 0 (Apor_dataplane.Udp_driver.delivered driver))

let () =
  Alcotest.run "apor_dataplane"
    [
      ( "packet",
        [
          QCheck_alcotest.to_alcotest packet_roundtrip_qcheck;
          QCheck_alcotest.to_alcotest packet_decode_total_qcheck;
          Alcotest.test_case "truncation and bad header" `Quick test_packet_truncation;
          Alcotest.test_case "batched frames" `Quick test_packet_batch;
          QCheck_alcotest.to_alcotest dgram_conversion_qcheck;
          QCheck_alcotest.to_alcotest dgram_message_codec_qcheck;
        ] );
      ( "workload",
        [
          Alcotest.test_case "shape grammar" `Quick test_shape_grammar;
          Alcotest.test_case "seed determinism" `Quick test_workload_determinism;
          Alcotest.test_case "shape factor bounds" `Quick test_shape_factor;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "per-window loss" `Quick test_metrics_windows;
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
        ] );
      ( "run(sim)",
        [
          Alcotest.test_case "oracle-attached smoke" `Slow test_sim_smoke;
          Alcotest.test_case "deterministic report JSON" `Slow
            test_sim_deterministic_json;
          Alcotest.test_case "closed loop times out exactly" `Quick
            test_closed_loop_timeout_exact;
          Alcotest.test_case "closed loop ignores late deliveries" `Quick
            test_closed_loop_late_delivery;
          Alcotest.test_case "closed loop pending events bounded" `Slow
            test_closed_loop_pending_bounded;
        ] );
      ( "driver",
        [
          Alcotest.test_case "hop budget drops" `Quick test_driver_hop_budget;
          Alcotest.test_case "relay goes straight to dst" `Quick test_driver_relay;
          Alcotest.test_case "duplicate counted once" `Quick test_driver_duplicate;
          Alcotest.test_case "open loop keeps due times" `Quick
            test_driver_open_loop_due_times;
          Alcotest.test_case "stray port rejected" `Quick test_driver_stray_port;
        ] );
      ( "run(udp)",
        [
          Alcotest.test_case "open loop keeps its rate" `Slow test_udp_open_loop_rate;
          Alcotest.test_case "closed loop timers bounded" `Slow test_udp_closed_loop_timers;
          Alcotest.test_case "stray datagram is undecodable" `Slow test_udp_stray_datagram;
        ] );
    ]
