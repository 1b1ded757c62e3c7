open Apor_util
module Ev = Apor_trace.Event

type pending = {
  psent_at : float;
  pdirect_s : float; (* the origination-time baseline; unused under [Min_zero_hop] *)
  pflow : int; (* closed-loop flow index, -1 on the open loop *)
}

type t = {
  host : Host.t;
  gen : Workload.t;
  payload_len : int;
  metrics : Metrics.t;
  trace : Apor_trace.Collector.t option;
  pending : (int, pending) Hashtbl.t;
  observed : (int, float) Hashtbl.t;
      (* (origin * n + dst) -> min zero-hop latency, seconds ([Min_zero_hop]) *)
  mutable flows : Flows.t option; (* closed loop only *)
  mutable next_id : int;
  mutable sent : int;
  mutable delivered : int;
  mutable stopped : bool;
}

let emit t ev =
  match t.trace with Some tr -> Apor_trace.Collector.emit tr ev | None -> ()

let sent t = t.sent
let delivered t = t.delivered

let stop t =
  t.stopped <- true;
  Option.iter Flows.stop t.flows

(* Send along the source's current recommendation: via the advised
   intermediate, or direct when there is none. *)
let originate t ~now ~flow src dst =
  let id = t.next_id in
  t.next_id <- id + 1;
  let hop =
    match t.host.best_hop ~now ~src ~dst with
    | Some h when h <> src && h <> dst -> Some h
    | Some _ | None -> None
  in
  let next = match hop with Some h -> h | None -> dst in
  t.sent <- t.sent + 1;
  Metrics.record_sent t.metrics ~now;
  emit t (Ev.Dgram_sent { id; origin = src; dst; hop });
  let direct_s =
    match t.host.baseline with Host.Half_rtt f -> f ~src ~dst | Host.Min_zero_hop -> 0.
  in
  Hashtbl.replace t.pending id { psent_at = now; pdirect_s = direct_s; pflow = flow };
  t.host.send ~src ~dst:next
    {
      Packet.id;
      origin = src;
      dst;
      hops = 0;
      sent_at_us = int_of_float (now *. 1e6);
      payload_len = t.payload_len;
    };
  id

let direct_baseline t ~now pd (p : Packet.t) =
  match t.host.baseline with
  | Host.Half_rtt _ -> Some pd.pdirect_s
  | Host.Min_zero_hop ->
      let key = (p.origin * t.host.n) + p.dst in
      if p.hops = 0 then begin
        let lat = Float.max 0. (now -. pd.psent_at) in
        match Hashtbl.find_opt t.observed key with
        | Some b when b <= lat -> ()
        | Some _ | None -> Hashtbl.replace t.observed key lat
      end;
      Hashtbl.find_opt t.observed key

let deliver t ~now ~node (p : Packet.t) =
  match Hashtbl.find_opt t.pending p.id with
  | None -> () (* a duplicate, a datagram its flow timed out, or an unknown id *)
  | Some pd -> (
      Hashtbl.remove t.pending p.id;
      t.delivered <- t.delivered + 1;
      Metrics.record_delivered t.metrics ~now ~sent_at:pd.psent_at ~payload:p.payload_len
        ~direct_s:(direct_baseline t ~now pd p) ~hops:p.hops;
      emit t (Ev.Dgram_delivered { id = p.id; node; hops = p.hops });
      match t.flows with
      | Some flows when pd.pflow >= 0 -> Flows.delivered flows ~flow:pd.pflow ~id:p.id
      | Some _ | None -> ())

(* One arrival at [node]: deliver at the destination, or relay once at the
   advised intermediate straight to the destination.  A packet naming a
   port outside the overlay is rejected before anything reads it. *)
let on_packet t ~now ~node (p : Packet.t) =
  let n = t.host.n in
  if p.origin < 0 || p.origin >= n || p.dst < 0 || p.dst >= n then false
  else begin
    if node = p.dst then deliver t ~now ~node p
    else if p.hops + 1 > Packet.max_hops then begin
      Metrics.record_dropped t.metrics ~now;
      emit t (Ev.Dgram_dropped { id = p.id; node; reason = "hop-budget" })
    end
    else begin
      emit t (Ev.Dgram_forwarded { id = p.id; node; dst = p.dst });
      t.host.send ~src:node ~dst:p.dst { p with hops = p.hops + 1 }
    end;
    true
  end

(* Each arrival carries the time it was due, and the next one is due an
   inter-arrival draw after that — not after the moment this callback
   happened to run.  Wall-clock timers fire late; scheduling from the
   callback would add every lateness to the schedule and undershoot the
   offered rate, where this catches up.  An engine timer fires at its
   key, so on the simulator the two rules agree. *)
let rec open_loop_tick t ~due =
  if not t.stopped then begin
    let src, dst = Workload.pick_pair t.gen in
    ignore (originate t ~now:(t.host.now ()) ~flow:(-1) src dst : int);
    let due = due +. Workload.next_delay t.gen ~now:due in
    t.host.schedule_at due (fun () -> open_loop_tick t ~due)
  end

let attach (host : Host.t) ~spec ~seed ~metrics ?trace ?start_at () =
  let rng = Rng.split (Rng.make ~seed) "dataplane.workload" in
  let t =
    {
      host;
      gen = Workload.create ~spec ~n:host.n ~rng;
      payload_len = spec.Workload.payload_bytes;
      metrics;
      trace;
      pending = Hashtbl.create 4096;
      observed = Hashtbl.create 1024;
      flows = None;
      next_id = 0;
      sent = 0;
      delivered = 0;
      stopped = false;
    }
  in
  (match spec.Workload.mode with
  | Workload.Open_loop -> ()
  | Workload.Closed_loop { window; think_s } ->
      let send ~flow ~now =
        let src, dst = Workload.pick_pair t.gen in
        originate t ~now ~flow src dst
      in
      t.flows <-
        Some
          (Flows.create host ~send ~forget:(Hashtbl.remove t.pending) ~window
             ~think_s:(Float.max host.think_floor_s think_s)));
  host.set_sink (fun ~now ~node p -> on_packet t ~now ~node p);
  let kick () =
    match t.flows with
    | None -> open_loop_tick t ~due:(host.now ())
    | Some flows -> Flows.start flows ~rate_pps:spec.Workload.rate_pps
  in
  (match start_at with
  | Some at when at > host.now () -> host.schedule_at at kick
  | Some _ | None -> kick ());
  t
