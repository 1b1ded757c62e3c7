let in_window ?(t0 = neg_infinity) ?(t1 = infinity) time = time >= t0 && time <= t1

let per_node_messages ?cls ?t0 ?t1 tr ~n =
  let sent = Array.make n 0 and received = Array.make n 0 in
  let wanted c = match cls with None -> true | Some c' -> c = c' in
  Collector.iter tr (fun tv ->
      if in_window ?t0 ?t1 tv.Collector.time then begin
        match tv.Collector.event with
        | Event.Send { cls = c; src; _ } | Event.Drop { cls = c; src; _ } ->
            if wanted c && src >= 0 && src < n then sent.(src) <- sent.(src) + 1
        | Event.Deliver { cls = c; dst; _ } ->
            if wanted c && dst >= 0 && dst < n then received.(dst) <- received.(dst) + 1
        | _ -> ()
      end);
  Array.init n (fun i -> (sent.(i), received.(i)))

let traced_bytes ?t0 ?t1 tr ~n =
  let bytes = Array.make n 0 in
  Collector.iter tr (fun tv ->
      if in_window ?t0 ?t1 tv.Collector.time then begin
        match tv.Collector.event with
        (* a dropped packet's outgoing bytes were counted by its Send *)
        | Event.Send { src; bytes = b; _ } ->
            if src >= 0 && src < n then bytes.(src) <- bytes.(src) + b
        | Event.Deliver { dst; bytes = b; _ } ->
            if dst >= 0 && dst < n then bytes.(dst) <- bytes.(dst) + b
        | _ -> ()
      end);
  bytes

type failover_span = {
  node : int;
  dst : int;
  server : int;
  started : float;
  ended : float option;
}

module Acc = struct
  type t = {
    computed : (int * int, float) Hashtbl.t;  (* (server, client) -> computed at *)
    last_sample : (int * int, float) Hashtbl.t;
    mutable rec_samples : (float * float) list;  (* (applied at, latency), newest first *)
    open_spans : (int * int, failover_span) Hashtbl.t;  (* by (node, dst) *)
    mutable closed : failover_span list;  (* newest close first *)
    mutable started : int;
  }

  let create () =
    {
      computed = Hashtbl.create 64;
      last_sample = Hashtbl.create 64;
      rec_samples = [];
      open_spans = Hashtbl.create 16;
      closed = [];
      started = 0;
    }

  let close acc span time = acc.closed <- { span with ended = Some time } :: acc.closed

  let observe acc (tv : Collector.timed) =
    let time = tv.Collector.time in
    match tv.Collector.event with
    | Event.Rec_computed { server; client; _ } -> Hashtbl.replace acc.computed (server, client) time
    | Event.Rec_applied { node; server; local = false; _ } -> (
        match Hashtbl.find_opt acc.computed (server, node) with
        | Some tc when Hashtbl.find_opt acc.last_sample (server, node) <> Some time ->
            (* entries of one round-two message apply at one instant;
               collapse them into a single latency sample *)
            Hashtbl.replace acc.last_sample (server, node) time;
            acc.rec_samples <- (time, time -. tc) :: acc.rec_samples
        | Some _ | None -> ())
    | Event.Failover_started { node; dst; server; _ } ->
        acc.started <- acc.started + 1;
        Option.iter (fun span -> close acc span time) (Hashtbl.find_opt acc.open_spans (node, dst));
        Hashtbl.replace acc.open_spans (node, dst) { node; dst; server; started = time; ended = None }
    | Event.Failover_stopped { node; dst; _ } -> (
        match Hashtbl.find_opt acc.open_spans (node, dst) with
        | Some span ->
            Hashtbl.remove acc.open_spans (node, dst);
            close acc span time
        | None -> ())
    | _ -> ()

  let rec_latencies acc = List.rev_map snd acc.rec_samples

  let failover_durations acc =
    List.rev_map (fun span -> Option.get span.ended -. span.started) acc.closed

  let failovers_started acc = acc.started
end

let acc_of tr =
  let acc = Acc.create () in
  Collector.iter tr (Acc.observe acc);
  acc

let recommendation_latencies ?t0 ?t1 tr =
  List.fold_left
    (fun l (time, latency) -> if in_window ?t0 ?t1 time then latency :: l else l)
    [] (acc_of tr).Acc.rec_samples

let failover_spans ?(t0 = neg_infinity) ?(t1 = infinity) tr =
  let acc = acc_of tr in
  Hashtbl.fold (fun _ span l -> span :: l) acc.Acc.open_spans acc.Acc.closed
  |> List.filter (fun span ->
         span.started <= t1
         && match span.ended with None -> true | Some e -> e >= t0)
  |> List.sort (fun a b -> compare (a.started, a.node, a.dst) (b.started, b.node, b.dst))
