open Apor_util
open Apor_sim
module Cluster = Apor_overlay.Cluster
module Message = Apor_overlay.Message
module Ev = Apor_trace.Event

type pending = {
  psent_at : float;
  pdirect_s : float; (* one-way direct baseline, seconds *)
  pflow : int option; (* closed-loop flow index *)
}

type t = {
  cluster : Cluster.t;
  gen : Workload.t;
  spec : Workload.spec;
  metrics : Metrics.t;
  trace : Apor_trace.Collector.t option;
  pending : (int, pending) Hashtbl.t;
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

let engine t = Cluster.engine t.cluster

let originate t ~flow src dst =
  let now = Engine.now (engine t) in
  let id = t.next_id in
  t.next_id <- id + 1;
  let direct_s = Network.rtt_ms (Cluster.network t.cluster) src dst /. 2. /. 1000. in
  let hop =
    match Cluster.best_hop t.cluster ~src ~dst with
    | Some h when h <> src && h <> dst -> Some h
    | Some _ | None -> None
  in
  let next = match hop with Some h -> h | None -> dst in
  t.sent <- t.sent + 1;
  Metrics.record_sent t.metrics ~now;
  emit t (Ev.Dgram_sent { id; origin = src; dst; hop });
  Hashtbl.replace t.pending id { psent_at = now; pdirect_s = direct_s; pflow = flow };
  Cluster.send_dgram t.cluster ~src ~dst:next
    (Message.Dgram
       {
         id;
         origin = src;
         dst;
         hops = 0;
         sent_at_us = int_of_float (now *. 1e6);
         payload = t.spec.Workload.payload_bytes;
       });
  id

(* Closed-loop flows on the virtual clock.  The clock stands still inside
   an event, so [originate]'s own reading is the [now] the table stamps. *)
let flow_host t =
  {
    Flows.now = (fun () -> Engine.now (engine t));
    schedule_at = (fun time f -> Engine.schedule_at (engine t) ~time f);
    send =
      (fun ~flow ~now:_ ->
        let src, dst = Workload.pick_pair t.gen in
        originate t ~flow:(Some flow) src dst);
    forget = Hashtbl.remove t.pending;
  }

let on_dgram t ~now ~node msg =
  match msg with
  | Message.Dgram { id; origin = _; dst; hops; sent_at_us = _; payload } ->
      if node = dst then begin
        match Hashtbl.find_opt t.pending id with
        | None -> () (* duplicate or abandoned by a flow timeout: ignore *)
        | Some p ->
            Hashtbl.remove t.pending id;
            t.delivered <- t.delivered + 1;
            Metrics.record_delivered t.metrics ~now ~sent_at:p.psent_at ~payload
              ~direct_s:(Some p.pdirect_s) ~hops;
            emit t (Ev.Dgram_delivered { id; node; hops });
            match (p.pflow, t.flows) with
            | Some flow, Some flows -> Flows.delivered flows ~flow ~id
            | _ -> ()
      end
      else if hops + 1 > Packet.max_hops then begin
        Metrics.record_dropped t.metrics ~now;
        emit t (Ev.Dgram_dropped { id; node; reason = "hop-budget" })
      end
      else begin
        (* the advised intermediate: relay straight to the destination *)
        emit t (Ev.Dgram_forwarded { id; node; dst });
        match msg with
        | Message.Dgram d ->
            Cluster.send_dgram t.cluster ~src:node ~dst
              (Message.Dgram { d with hops = d.hops + 1 })
        | _ -> assert false
      end
  | _ -> ()

let rec open_loop_tick t =
  if not t.stopped then begin
    let src, dst = Workload.pick_pair t.gen in
    ignore (originate t ~flow:None src dst);
    let now = Engine.now (engine t) in
    Engine.schedule (engine t) ~delay:(Workload.next_delay t.gen ~now) (fun () ->
        open_loop_tick t)
  end

let attach ~cluster ~spec ~seed ~metrics ?trace ?start_at () =
  let rng = Rng.split (Rng.make ~seed) "dataplane.workload" in
  let gen = Workload.create ~spec ~n:(Cluster.n cluster) ~rng in
  let t =
    {
      cluster;
      gen;
      spec;
      metrics;
      trace;
      pending = Hashtbl.create 4096;
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
      t.flows <- Some (Flows.create (flow_host t) ~window ~think_s:(Float.max 1e-9 think_s)));
  Cluster.set_dgram_sink cluster (fun ~now ~node msg -> on_dgram t ~now ~node msg);
  let eng = Cluster.engine cluster in
  let kick () =
    match t.flows with
    | None -> open_loop_tick t
    | Some flows -> Flows.start flows ~rate_pps:spec.Workload.rate_pps
  in
  (match start_at with
  | Some at when at > Engine.now eng -> Engine.schedule_at eng ~time:at kick
  | Some _ | None -> kick ());
  t
