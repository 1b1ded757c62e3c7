(* Fixed log-spaced histogram: deterministic percentiles whatever the
   sample order, O(1) memory however many datagrams fly. *)
module Hist = struct
  type t = {
    lo : float;
    bins_per_decade : float;
    counts : int array;
    mutable total : int;
    mutable under : int; (* below lo: read from [below], or as lo without one *)
    below : t option; (* finer histogram for the samples under lo *)
  }

  let create ?below ~lo ~decades ~bins_per_decade () =
    {
      lo;
      bins_per_decade = float_of_int bins_per_decade;
      counts = Array.make (decades * bins_per_decade) 0;
      total = 0;
      under = 0;
      below;
    }

  let rec add t v =
    t.total <- t.total + 1;
    if v < t.lo then begin
      t.under <- t.under + 1;
      Option.iter (fun b -> add b v) t.below
    end
    else begin
      let i = int_of_float (Float.log10 (v /. t.lo) *. t.bins_per_decade) in
      let i = min i (Array.length t.counts - 1) in
      t.counts.(i) <- t.counts.(i) + 1
    end

  (* Geometric midpoint of the bin holding the sample of rank [rank]; the
     [under] samples are the lowest ranks. *)
  let rec at_rank t rank =
    if rank <= t.under then
      match t.below with Some b -> at_rank b rank | None -> Some t.lo
    else begin
      let seen = ref t.under in
      let result = ref None in
      (try
         Array.iteri
           (fun i c ->
             seen := !seen + c;
             if !seen >= rank then begin
               result :=
                 Some (t.lo *. Float.pow 10. ((float_of_int i +. 0.5) /. t.bins_per_decade));
               raise Exit
             end)
           t.counts
       with Exit -> ());
      !result
    end

  let percentile t p =
    if t.total = 0 then None
    else at_rank t (max 1 (int_of_float (Float.round (p /. 100. *. float_of_int t.total))))
end

type t = {
  window_s : float;
  t0 : float;
  mutable wsent : int array; (* per send window *)
  mutable wdelivered : int array;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable payload_bytes : int;
  mutable direct : int; (* delivered with hops = 0 *)
  mutable relayed : int;
  latency : Hist.t; (* seconds *)
  stretch : Hist.t; (* ratio >= 1 *)
}

let create ~window_s ~t0 =
  if window_s <= 0. then invalid_arg "Metrics.create: window must be positive";
  {
    window_s;
    t0;
    wsent = Array.make 16 0;
    wdelivered = Array.make 16 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    payload_bytes = 0;
    direct = 0;
    relayed = 0;
    (* Loopback latencies fall under 100 us: they get their own three
       decades of bins rather than all reading as 100 us. *)
    latency =
      Hist.create
        ~below:(Hist.create ~lo:1e-7 ~decades:3 ~bins_per_decade:100 ())
        ~lo:1e-4 ~decades:7 ~bins_per_decade:100 ();
    stretch = Hist.create ~lo:1.0 ~decades:3 ~bins_per_decade:100 ();
  }

let window_of t time = max 0 (int_of_float ((time -. t.t0) /. t.window_s))

let bump arr i =
  let a = !arr in
  let a =
    if i < Array.length a then a
    else begin
      let bigger = Array.make (max (i + 1) (2 * Array.length a)) 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      arr := bigger;
      bigger
    end
  in
  a.(i) <- a.(i) + 1

let record_sent t ~now =
  t.sent <- t.sent + 1;
  let w = window_of t now in
  let r = ref t.wsent in
  bump r w;
  t.wsent <- !r

let record_delivered t ~now ~sent_at ~payload ~direct_s ~hops =
  t.delivered <- t.delivered + 1;
  t.payload_bytes <- t.payload_bytes + payload;
  if hops = 0 then t.direct <- t.direct + 1 else t.relayed <- t.relayed + 1;
  let w = window_of t sent_at in
  let r = ref t.wdelivered in
  bump r w;
  t.wdelivered <- !r;
  let lat = Float.max 0. (now -. sent_at) in
  Hist.add t.latency lat;
  match direct_s with
  | Some d when d > 0. -> Hist.add t.stretch (Float.max 1. (lat /. d))
  | Some _ | None -> ()

let record_dropped t ~now:_ = t.dropped <- t.dropped + 1

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped

let loss_overall t =
  if t.sent = 0 then 0.
  else float_of_int (t.sent - t.delivered) /. float_of_int t.sent

let worst_window t =
  let worst = ref None in
  Array.iteri
    (fun w s ->
      if s > 0 then begin
        let d = if w < Array.length t.wdelivered then t.wdelivered.(w) else 0 in
        let loss = float_of_int (s - d) /. float_of_int s in
        match !worst with
        | Some (l, _) when l >= loss -> ()
        | _ -> worst := Some (loss, t.t0 +. (float_of_int w *. t.window_s))
      end)
    t.wsent;
  !worst

let goodput_kbps t ~t1 =
  let span = t1 -. t.t0 in
  if span <= 0. then 0. else float_of_int t.payload_bytes *. 8. /. span /. 1000.

let latency_percentile t p = Hist.percentile t.latency p
let stretch_percentile t p = Hist.percentile t.stretch p
let stretch_samples t = t.stretch.Hist.total

(* Deterministic JSON: the same fixed-width float convention as
   Chaos.Score, so equal runs serialize to equal bytes. *)
let jf v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.6f" v

let jp = function None -> "null" | Some v -> jf v

let json_fields t ~runtime ~shape ~n ~t1 =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "\"runtime\":%S,\"shape\":%S,\"n\":%d" runtime shape n;
  Printf.bprintf buf ",\"t0\":%s,\"duration_s\":%s" (jf t.t0) (jf (t1 -. t.t0));
  Printf.bprintf buf ",\"sent\":%d,\"delivered\":%d,\"dropped\":%d" t.sent t.delivered
    t.dropped;
  Printf.bprintf buf ",\"goodput_kbps\":%s" (jf (goodput_kbps t ~t1));
  Printf.bprintf buf
    ",\"latency_ms\":{\"p50\":%s,\"p99\":%s,\"p999\":%s}"
    (jp (Option.map (fun s -> s *. 1000.) (latency_percentile t 50.)))
    (jp (Option.map (fun s -> s *. 1000.) (latency_percentile t 99.)))
    (jp (Option.map (fun s -> s *. 1000.) (latency_percentile t 99.9)));
  Printf.bprintf buf
    ",\"stretch\":{\"p50\":%s,\"p99\":%s,\"p999\":%s,\"samples\":%d}"
    (jp (stretch_percentile t 50.))
    (jp (stretch_percentile t 99.))
    (jp (stretch_percentile t 99.9))
    (stretch_samples t);
  let worst_loss, worst_t0 =
    match worst_window t with Some (l, w0) -> (jf l, jf w0) | None -> ("null", "null")
  in
  Printf.bprintf buf
    ",\"loss\":{\"overall\":%s,\"worst_window\":%s,\"worst_window_t0\":%s,\"window_s\":%s}"
    (jf (loss_overall t)) worst_loss worst_t0 (jf t.window_s);
  Printf.bprintf buf ",\"hops\":{\"direct\":%d,\"relayed\":%d}" t.direct t.relayed;
  Buffer.contents buf
