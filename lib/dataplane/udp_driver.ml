open Apor_util
module Udp = Apor_deploy.Udp_runtime
module Node_core = Apor_overlay_core.Node_core
module Ev = Apor_trace.Event

let flow_timeout_s = 5.

type pending = {
  psent_at : float;
  pflow : int option;
  mutable presolved : bool; (* delivered, or abandoned by a flow timeout *)
}

type t = {
  udp : Udp.t;
  n : int;
  gen : Workload.t;
  spec : Workload.spec;
  metrics : Metrics.t;
  trace : Apor_trace.Collector.t option;
  pending : (int, pending) Hashtbl.t;
  baseline : (int, float) Hashtbl.t;
      (* (origin * n + dst) -> min observed zero-hop latency, seconds *)
  mutable next_id : int;
  mutable sent : int;
  mutable delivered : int;
  mutable stopped : bool;
}

let emit t ev =
  match t.trace with Some tr -> Apor_trace.Collector.emit tr ev | None -> ()

let sent t = t.sent
let delivered t = t.delivered
let stop t = t.stopped <- true

let send_packet t (p : Packet.t) ~src ~dst =
  Udp.send_data t.udp ~src ~dst ~size:(Packet.size p) ~fill:(fun buf pos ->
      Packet.encode_into p buf ~pos)

let originate t ~flow src dst =
  let now = Udp.now t.udp in
  let id = t.next_id in
  t.next_id <- id + 1;
  let hop =
    match Node_core.best_hop (Udp.node_core t.udp src) ~now ~dst_port:dst with
    | Some h when h <> src && h <> dst -> Some h
    | Some _ | None -> None
  in
  let next = match hop with Some h -> h | None -> dst in
  t.sent <- t.sent + 1;
  Metrics.record_sent t.metrics ~now;
  emit t (Ev.Dgram_sent { id; origin = src; dst; hop });
  Hashtbl.replace t.pending id { psent_at = now; pflow = flow; presolved = false };
  let p : Packet.t =
    {
      id;
      origin = src;
      dst;
      hops = 0;
      sent_at_us = int_of_float (now *. 1e6);
      payload_len = t.spec.Workload.payload_bytes;
    }
  in
  send_packet t p ~src ~dst:next;
  id

let rec flow_step t f =
  if not t.stopped then begin
    let src, dst = Workload.pick_pair t.gen in
    let id = originate t ~flow:(Some f) src dst in
    Udp.schedule t.udp ~delay:flow_timeout_s (fun () ->
        match Hashtbl.find_opt t.pending id with
        | Some p when not p.presolved ->
            p.presolved <- true;
            flow_step t f
        | Some _ | None -> ())
  end

and flow_resume t f ~think =
  Udp.schedule t.udp ~delay:(Float.max 1e-4 think) (fun () -> flow_step t f)

let deliver t ~now ~node (p : Packet.t) =
  match Hashtbl.find_opt t.pending p.id with
  | None -> () (* a duplicated frame already delivered, or an unknown id *)
  | Some pd when pd.presolved -> ()
  | Some pd ->
      pd.presolved <- true;
      Hashtbl.remove t.pending p.id;
      t.delivered <- t.delivered + 1;
      let lat = Float.max 0. (now -. pd.psent_at) in
      let key = (p.origin * t.n) + p.dst in
      if p.hops = 0 then begin
        match Hashtbl.find_opt t.baseline key with
        | Some b when b <= lat -> ()
        | Some _ | None -> Hashtbl.replace t.baseline key lat
      end;
      let direct_s = Hashtbl.find_opt t.baseline key in
      Metrics.record_delivered t.metrics ~now ~sent_at:pd.psent_at
        ~payload:p.payload_len ~direct_s ~hops:p.hops;
      emit t (Ev.Dgram_delivered { id = p.id; node; hops = p.hops });
      (match (pd.pflow, t.spec.Workload.mode) with
      | Some f, Workload.Closed_loop { think_s; _ } ->
          if not t.stopped then flow_resume t f ~think:think_s
      | _ -> ())

let on_packet t ~now ~node (p : Packet.t) =
  if node = p.dst then deliver t ~now ~node p
  else if p.hops + 1 > Packet.max_hops then begin
    Metrics.record_dropped t.metrics ~now;
    emit t (Ev.Dgram_dropped { id = p.id; node; reason = "hop-budget" })
  end
  else begin
    emit t (Ev.Dgram_forwarded { id = p.id; node; dst = p.dst });
    send_packet t { p with hops = p.hops + 1 } ~src:node ~dst:p.dst
  end

(* The runtime hands us one non-control UDP datagram: consume as many
   back-to-back packets as parse, stop at the first bad byte and report
   how far we got — the runtime accounts only the consumed prefix. *)
let on_datagram t ~now ~node ~wire_src:_ ~buf ~len =
  let pos = ref 0 in
  let stop = ref false in
  while (not !stop) && !pos < len do
    match Packet.decode_from buf ~pos:!pos ~limit:len with
    | Ok (p, next) ->
        on_packet t ~now ~node p;
        pos := next
    | Error _ -> stop := true
  done;
  !pos

(* Each arrival carries the time it was due, and the next one is due an
   inter-arrival draw after that — not after the moment this callback
   happened to run.  Wall-clock timers fire late; scheduling from the
   callback would add every lateness to the schedule and undershoot the
   offered rate, where this catches up. *)
let rec open_loop_tick t ~due =
  if not t.stopped then begin
    let src, dst = Workload.pick_pair t.gen in
    ignore (originate t ~flow:None src dst);
    let due = due +. Workload.next_delay t.gen ~now:due in
    Udp.schedule t.udp ~delay:(Float.max 0. (due -. Udp.now t.udp)) (fun () ->
        open_loop_tick t ~due)
  end

let attach ~udp ~spec ~seed ~metrics ?trace ?start_at () =
  let rng = Rng.split (Rng.make ~seed) "dataplane.workload" in
  let n = Udp.n udp in
  let gen = Workload.create ~spec ~n ~rng in
  let t =
    {
      udp;
      n;
      gen;
      spec;
      metrics;
      trace;
      pending = Hashtbl.create 4096;
      baseline = Hashtbl.create 1024;
      next_id = 0;
      sent = 0;
      delivered = 0;
      stopped = false;
    }
  in
  Udp.set_data_sink udp
    (Some (fun ~now ~node ~wire_src ~buf ~len -> on_datagram t ~now ~node ~wire_src ~buf ~len));
  let kick () =
    match spec.Workload.mode with
    | Workload.Open_loop -> open_loop_tick t ~due:(Udp.now t.udp)
    | Workload.Closed_loop { window; _ } ->
        for f = 0 to window - 1 do
          Udp.schedule t.udp
            ~delay:(float_of_int f /. spec.Workload.rate_pps)
            (fun () -> flow_step t f)
        done
  in
  (match start_at with
  | Some at when at > Udp.now udp -> Udp.schedule udp ~delay:(at -. Udp.now udp) kick
  | Some _ | None -> kick ());
  t
