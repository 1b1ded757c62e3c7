open Apor_util
module Core = Apor_overlay_core
module Ev = Apor_trace.Event

type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable send_retries : int;
  mutable frames_dropped : int; (* retry budget exhausted or undecodable *)
  mutable data_frames_sent : int;
  mutable data_batches_sent : int;
  mutable data_frames_dropped : int; (* injected drop or socket backpressure *)
  mutable data_bytes_received : int;
}

type link_stats = {
  mutable sent : int;
  mutable retries : int;
  mutable dropped_overflow : int;
  mutable dropped_refused : int;
  mutable dropped_injected : int;
}

type frame_fate = Pass | Drop | Corrupt | Duplicate | Delay of float

(* One queued outbound frame with its retry budget. *)
type pending = { frame : bytes; mutable attempts : int }

type link = {
  addr : Unix.sockaddr;
  queue : pending Queue.t;
  mutable reported_down : bool;
  lstats : link_stats;
  (* Data-plane batch buffer: user datagram frames for this peer are
     packed back to back into one reused buffer and shipped as a single
     UDP datagram per loop turn (or when the next frame would overflow).
     Allocated lazily — control-only runs never pay for it. *)
  mutable dbuf : bytes;
  mutable dlen : int;
  mutable dframes : int;
}

type endpoint = {
  port : int; (* logical overlay address = index *)
  mutable fd : Unix.file_descr;
  mutable rt : Core.Runtime.t option; (* set right after creation; never None in use *)
  links : link array;
  covered : bool array; (* dst ports a recommendation has been applied for *)
  mutable covered_count : int;
  mutable accounted_bytes : int; (* protocol-level bytes, sent + received *)
  mutable alive : bool;
  mutable incarnation : int; (* bumps on kill and restart; stale timers check it *)
  mutable undecodable : int; (* received frames this endpoint could not decode *)
}

type membership = [ `Static | `Dynamic of int ]

type t = {
  n : int;
  config : Core.Config.t;
  membership : membership;
  base_port : int;
  clock : Clock.t;
  timers : (unit -> unit) Heap.t; (* armed timers by (due time, arm order) *)
  endpoints : endpoint array;
  recv_buf : bytes;
  stats : stats;
  trace : Apor_trace.Collector.t option;
  mutable data_sink :
    (now:float -> node:int -> wire_src:int -> buf:bytes -> len:int -> int) option;
  mutable fault : (now:float -> src:int -> dst:int -> frame_fate) option;
  mutable corrupt_cycle : int;
  seed : int;
  mutable closed : bool;
}

let max_attempts = 5

(* Payload budget per data-plane batch datagram: conservative loopback
   MTU so a batch never fragments. *)
let data_mtu = 1400

let emit t ev =
  match t.trace with Some tr -> Apor_trace.Collector.emit tr ev | None -> ()

let udp_port ~base_port i = base_port + i

let try_send t ep link (p : pending) =
  p.attempts <- p.attempts + 1;
  match Unix.sendto ep.fd p.frame 0 (Bytes.length p.frame) [] link.addr with
  | _written ->
      t.stats.datagrams_sent <- t.stats.datagrams_sent + 1;
      link.lstats.sent <- link.lstats.sent + 1;
      `Sent
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ENOBUFS | EINTR), _, _) ->
      t.stats.send_retries <- t.stats.send_retries + 1;
      link.lstats.retries <- link.lstats.retries + 1;
      `Retry
  | exception Unix.Unix_error (ECONNREFUSED, _, _) ->
      (* Loopback ICMP port-unreachable from an earlier datagram: the peer
         socket is gone.  Report the link down once and drop the frame. *)
      `Down

let peer_of_link t link =
  match link.addr with Unix.ADDR_INET (_, udp) -> udp - t.base_port | _ -> 0

let report_link t ep link ~up =
  if link.reported_down = up then begin
    link.reported_down <- not up;
    let peer = peer_of_link t link in
    match ep.rt with
    | Some rt -> Core.Runtime.dispatch rt (Core.Node_core.Link_report { peer; up })
    | None -> ()
  end

let flush_link t ep link =
  let continue = ref true in
  while !continue && not (Queue.is_empty link.queue) do
    let p = Queue.peek link.queue in
    match try_send t ep link p with
    | `Sent ->
        ignore (Queue.pop link.queue);
        (* the peer's socket answers again: withdraw any down verdict *)
        report_link t ep link ~up:true
    | `Retry ->
        if p.attempts >= max_attempts then begin
          ignore (Queue.pop link.queue);
          t.stats.frames_dropped <- t.stats.frames_dropped + 1;
          link.lstats.dropped_overflow <- link.lstats.dropped_overflow + 1
        end
        else continue := false (* keep FIFO order; retry next loop turn *)
    | `Down ->
        ignore (Queue.pop link.queue);
        t.stats.frames_dropped <- t.stats.frames_dropped + 1;
        link.lstats.dropped_refused <- link.lstats.dropped_refused + 1;
        report_link t ep link ~up:false
  done

(* --- data-plane batches -------------------------------------------------- *)

let flush_data t ep link =
  if link.dlen > 0 then begin
    (match Unix.sendto ep.fd link.dbuf 0 link.dlen [] link.addr with
    | _written -> t.stats.data_batches_sent <- t.stats.data_batches_sent + 1
    | exception
        Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ENOBUFS | EINTR | ECONNREFUSED), _, _)
      ->
        (* Best-effort data: backpressure or a dead peer is honest loss,
           never a retry queue — the metrics layer sees it as such. *)
        t.stats.data_frames_dropped <- t.stats.data_frames_dropped + link.dframes);
    link.dlen <- 0;
    link.dframes <- 0
  end

let flush_data_batches t =
  Array.iter
    (fun ep -> if ep.alive then Array.iter (fun l -> flush_data t ep l) ep.links)
    t.endpoints

(* Reserve [size] bytes in [link]'s batch, flushing first when the frame
   would overflow it; returns the write offset. *)
let reserve_data t ep link size =
  if Bytes.length link.dbuf = 0 then link.dbuf <- Bytes.create data_mtu;
  if link.dlen + size > data_mtu then flush_data t ep link;
  let pos = link.dlen in
  link.dlen <- pos + size;
  link.dframes <- link.dframes + 1;
  pos

let append_data_copy t ep link buf =
  let size = Bytes.length buf in
  let pos = reserve_data t ep link size in
  Bytes.blit buf 0 link.dbuf pos size

let send_data t ~src ~dst ~size ~fill =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Udp_runtime.send_data: port out of range";
  if size <= 0 || size > data_mtu then
    invalid_arg "Udp_runtime.send_data: size outside (0, mtu]";
  let ep = t.endpoints.(src) in
  if ep.alive then begin
    (* Same convention as control frames: charge and trace the sender
       before the fault fate — a lost frame still cost its sender. *)
    ep.accounted_bytes <- ep.accounted_bytes + size;
    emit t (Ev.Send { cls = Msgclass.Data; src; dst; bytes = size });
    t.stats.data_frames_sent <- t.stats.data_frames_sent + 1;
    let link = ep.links.(dst) in
    let append () =
      let pos = reserve_data t ep link size in
      fill link.dbuf pos;
      pos
    in
    match t.fault with
    | None -> ignore (append ())
    | Some fate -> (
        match fate ~now:(Clock.now t.clock) ~src ~dst with
        | Pass -> ignore (append ())
        | Drop -> t.stats.data_frames_dropped <- t.stats.data_frames_dropped + 1
        | Corrupt ->
            let pos = append () in
            Bytes.set_uint8 link.dbuf pos (Bytes.get_uint8 link.dbuf pos lxor 0xFF)
        | Duplicate ->
            ignore (append ());
            ignore (append ())
        | Delay d ->
            let pos = append () in
            let copy = Bytes.sub link.dbuf pos size in
            link.dlen <- pos;
            link.dframes <- link.dframes - 1;
            Heap.push t.timers
              ~key:(Clock.now t.clock +. Float.max 0. d)
              (fun () -> if ep.alive then append_data_copy t ep link copy))
  end

let set_data_sink t sink = t.data_sink <- sink

let schedule t ~delay f =
  Heap.push t.timers ~key:(Clock.now t.clock +. Float.max 0. delay) f

let pending_timers t = Heap.length t.timers

let pending_sends t =
  Array.exists
    (fun ep ->
      ep.alive && Array.exists (fun l -> not (Queue.is_empty l.queue)) ep.links)
    t.endpoints

(* Flip one byte inside the 6-byte frame header, cycling the position so
   corruption exercises magic, version, source-port and length failures in
   turn.  Deterministic: no draw is consumed. *)
let corrupt_frame t frame =
  let b = Bytes.copy frame in
  let span = min Frame.header_bytes (Bytes.length b) in
  if span > 0 then begin
    let pos = t.corrupt_cycle mod span in
    t.corrupt_cycle <- t.corrupt_cycle + 1;
    Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor 0xFF)
  end;
  b

let send_from t ep ~dst_port msg =
  if ep.alive && dst_port >= 0 && dst_port < t.n then begin
    (* Mirror the simulator's convention: the sender is charged at send
       time, the receiver at delivery — the oracle's traffic-conservation
       check counts trace bytes the same way. *)
    let bytes = Core.Message.size_bytes msg in
    ep.accounted_bytes <- ep.accounted_bytes + bytes;
    emit t (Ev.Send { cls = Core.Message.cls msg; src = ep.port; dst = dst_port; bytes });
    let link = ep.links.(dst_port) in
    let enqueue frame =
      Queue.push { frame; attempts = 0 } link.queue;
      flush_link t ep link
    in
    let frame = Frame.encode ~src_port:ep.port msg in
    match t.fault with
    | None -> enqueue frame
    | Some fate -> (
        match fate ~now:(Clock.now t.clock) ~src:ep.port ~dst:dst_port with
        | Pass -> enqueue frame
        | Drop ->
            (* vanishes like a lost datagram; already accounted at the src *)
            t.stats.frames_dropped <- t.stats.frames_dropped + 1;
            link.lstats.dropped_injected <- link.lstats.dropped_injected + 1
        | Corrupt -> enqueue (corrupt_frame t frame)
        | Duplicate ->
            enqueue frame;
            enqueue (Bytes.copy frame)
        | Delay d ->
            let inc = ep.incarnation in
            Heap.push t.timers
              ~key:(Clock.now t.clock +. Float.max 0. d)
              (fun () -> if ep.alive && ep.incarnation = inc then enqueue frame))
  end

let make_socket ~base_port i =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (try
     Unix.set_nonblock fd;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, udp_port ~base_port i))
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

(* The decentralized-membership role of [port] at [incarnation].  The
   first [initial] ports, incarnation zero, are the genesis members;
   everyone else — pending joiners and any restarted incarnation, whose
   previous view died with the process — bootstraps as a joiner.  A
   restarted member is still in its peers' views, so its Join_req earns
   an immediate idempotent Join_ack.  Contacts are every other port
   rotated by the node's own, so retries round-robin the whole deployment
   and sponsorship spreads instead of hammering port 0. *)
let role_for t ~port ~incarnation =
  match t.membership with
  | `Static -> None
  | `Dynamic initial ->
      let module M = Apor_membership.Membership_core in
      if incarnation = 0 && port < initial then
        Some (M.Member (M.genesis_view ~members:(List.init initial Fun.id)))
      else
        Some
          (M.Joiner
             { contacts = List.init (t.n - 1) (fun i -> (port + 1 + i) mod t.n) })

(* Build a node core plus its runtime wiring for [ep]'s current
   incarnation.  Timer callbacks from an earlier incarnation are
   recognised by the captured incarnation number and dropped. *)
let wire_core t ep =
  let core =
    Core.Node_core.create ~config:t.config ~port:ep.port ~capacity:t.n
      ?membership:(role_for t ~port:ep.port ~incarnation:ep.incarnation)
      ~trace:(Option.is_some t.trace)
      ~rng:
        (Rng.make ~seed:t.seed
        |> fun root ->
        Rng.split root
          (if ep.incarnation = 0 then Printf.sprintf "node.%d" ep.port
           else Printf.sprintf "node.%d+%d" ep.port ep.incarnation))
      ()
  in
  let inc = ep.incarnation in
  let rt =
    Core.Runtime.create ~core
      ~now:(fun () -> Clock.now t.clock)
      ~send:(fun ~dst_port msg -> send_from t ep ~dst_port msg)
      ~schedule:(fun ~at f ->
        Heap.push t.timers ~key:at (fun () -> if ep.alive && ep.incarnation = inc then f ()))
      ~on_recommend:(fun ~server_port:_ ~dst_port ~hop_port:_ ->
        if dst_port >= 0 && dst_port < t.n && not ep.covered.(dst_port) then begin
          ep.covered.(dst_port) <- true;
          ep.covered_count <- ep.covered_count + 1
        end)
      ?trace:(Option.map (fun tr ev -> Apor_trace.Collector.emit tr ev) t.trace)
      ()
  in
  ep.rt <- Some rt

let check_layout ~n ~base_port =
  if n < 2 then Error "need at least two nodes"
  else if n > 0xFFFF then Error "n out of range"
  else if base_port < 1 || base_port + n - 1 > 0xFFFF then Error "ports outside [1, 65535]"
  else Ok ()

let create ~config ~n ?(membership = `Static) ?(base_port = 9000) ?trace ~seed () =
  (match check_layout ~n ~base_port with
  | Ok () -> ()
  | Error e -> invalid_arg ("Udp_runtime.create: " ^ e));
  (match membership with
  | `Static -> ()
  | `Dynamic initial ->
      if initial < 2 || initial > n then
        invalid_arg "Udp_runtime.create: Dynamic initial outside [2, n]");
  let clock = Clock.create () in
  (match trace with
  | Some tr -> Apor_trace.Collector.set_clock tr (fun () -> Clock.now clock)
  | None -> ());
  let loopback = Unix.inet_addr_loopback in
  let fds = ref [] in
  let cleanup () = List.iter (fun fd -> try Unix.close fd with _ -> ()) !fds in
  let sockets =
    Array.init n (fun i ->
        match make_socket ~base_port i with
        | fd ->
            fds := fd :: !fds;
            fd
        | exception e ->
            cleanup ();
            raise e)
  in
  let endpoints =
    Array.init n (fun i ->
        {
          port = i;
          fd = sockets.(i);
          rt = None;
          links =
            Array.init n (fun j ->
                {
                  addr = Unix.ADDR_INET (loopback, udp_port ~base_port j);
                  queue = Queue.create ();
                  reported_down = false;
                  lstats =
                    {
                      sent = 0;
                      retries = 0;
                      dropped_overflow = 0;
                      dropped_refused = 0;
                      dropped_injected = 0;
                    };
                  dbuf = Bytes.empty;
                  dlen = 0;
                  dframes = 0;
                });
          covered = Array.make n false;
          covered_count = 0;
          accounted_bytes = 0;
          alive = true;
          incarnation = 0;
          undecodable = 0;
        })
  in
  let timers = Heap.create () in
  let t =
    {
      n;
      config;
      membership;
      base_port;
      clock;
      timers;
      endpoints;
      recv_buf = Bytes.create 65536;
      stats =
        {
          datagrams_sent = 0;
          datagrams_received = 0;
          send_retries = 0;
          frames_dropped = 0;
          data_frames_sent = 0;
          data_batches_sent = 0;
          data_frames_dropped = 0;
          data_bytes_received = 0;
        };
      trace;
      data_sink = None;
      fault = None;
      corrupt_cycle = 0;
      seed;
      closed = false;
    }
  in
  Array.iter (fun ep -> wire_core t ep) t.endpoints;
  t

let now t = Clock.now t.clock
let n t = t.n

let static_view t = Core.View.create ~version:1 ~members:(List.init t.n Fun.id)

let start t =
  match t.membership with
  | `Static ->
      let view = static_view t in
      Array.iter
        (fun ep ->
          match ep.rt with
          | Some rt ->
              Core.Runtime.dispatch rt Core.Node_core.Start;
              Core.Runtime.dispatch rt (Core.Node_core.Install_view view)
          | None -> ())
        t.endpoints
  | `Dynamic initial ->
      (* Genesis members boot holding their view (the core installs it on
         Start); pending joiners stay dormant until [join_node]. *)
      Array.iter
        (fun ep ->
          if ep.port < initial then
            match ep.rt with
            | Some rt -> Core.Runtime.dispatch rt Core.Node_core.Start
            | None -> ())
        t.endpoints

let join_node t i =
  (match t.membership with
  | `Static -> invalid_arg "Udp_runtime.join_node: membership is static"
  | `Dynamic initial ->
      if i < initial || i >= t.n then
        invalid_arg "Udp_runtime.join_node: port is not a pending joiner");
  let ep = t.endpoints.(i) in
  if ep.alive then
    match ep.rt with
    | Some rt -> Core.Runtime.dispatch rt Core.Node_core.Start
    | None -> ()

let rec fire_due_timers t =
  match Heap.peek t.timers with
  | Some (at, run) when at <= Clock.now t.clock ->
      ignore (Heap.pop t.timers);
      run ();
      fire_due_timers t
  | Some _ | None -> ()

let receive_ready t ready =
  List.iter
    (fun fd ->
      match Array.find_opt (fun ep -> ep.alive && ep.fd == fd) t.endpoints with
      | None -> ()
      | Some ep ->
          let continue = ref true in
          while !continue do
            match Unix.recvfrom fd t.recv_buf 0 (Bytes.length t.recv_buf) [] with
            | len, from
              when t.data_sink <> None
                   && (len = 0 || Bytes.get_uint8 t.recv_buf 0 <> Frame.magic) -> (
                (* Not a control frame: a data-plane batch.  The sink
                   parses the frames in place (the buffer is reused — it
                   must not retain it) and reports how many bytes were
                   valid; only those count toward conservation. *)
                t.stats.datagrams_received <- t.stats.datagrams_received + 1;
                match t.data_sink with
                | Some sink ->
                    let wire_src =
                      match from with
                      | Unix.ADDR_INET (_, udp) -> udp - t.base_port
                      | _ -> -1
                    in
                    let consumed =
                      sink ~now:(Clock.now t.clock) ~node:ep.port ~wire_src
                        ~buf:t.recv_buf ~len
                    in
                    if consumed > 0 then begin
                      ep.accounted_bytes <- ep.accounted_bytes + consumed;
                      t.stats.data_bytes_received <-
                        t.stats.data_bytes_received + consumed;
                      let src =
                        if wire_src >= 0 && wire_src < t.n then wire_src else ep.port
                      in
                      emit t
                        (Ev.Deliver
                           { cls = Msgclass.Data; src; dst = ep.port; bytes = consumed })
                    end;
                    if consumed < len then begin
                      t.stats.frames_dropped <- t.stats.frames_dropped + 1;
                      ep.undecodable <- ep.undecodable + 1
                    end
                | None -> ())
            | len, _from -> (
                t.stats.datagrams_received <- t.stats.datagrams_received + 1;
                match Frame.decode (Bytes.sub t.recv_buf 0 len) with
                | Ok (src_port, msg) when src_port >= 0 && src_port < t.n -> (
                    let bytes = Core.Message.size_bytes msg in
                    ep.accounted_bytes <- ep.accounted_bytes + bytes;
                    emit t
                      (Ev.Deliver
                         { cls = Core.Message.cls msg; src = src_port; dst = ep.port; bytes });
                    match ep.rt with
                    | Some rt ->
                        Core.Runtime.dispatch rt
                          (Core.Node_core.Deliver { src_port; msg })
                    | None -> ())
                | Ok _ (* source port outside the overlay: corrupted header *)
                | Error _ ->
                    t.stats.frames_dropped <- t.stats.frames_dropped + 1;
                    ep.undecodable <- ep.undecodable + 1)
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
                continue := false
            | exception Unix.Unix_error (ECONNREFUSED, _, _) ->
                (* async error from an earlier send on this socket *)
                ()
          done)
    ready

let run t ~duration =
  if t.closed then invalid_arg "Udp_runtime.run: closed";
  let deadline = Clock.now t.clock +. duration in
  let continue = ref true in
  while !continue do
    fire_due_timers t;
    Array.iter
      (fun ep -> if ep.alive then Array.iter (fun l -> flush_link t ep l) ep.links)
      t.endpoints;
    flush_data_batches t;
    let now = Clock.now t.clock in
    if now >= deadline then continue := false
    else begin
      let fds =
        Array.fold_left (fun acc ep -> if ep.alive then ep.fd :: acc else acc) [] t.endpoints
      in
      let until_deadline = deadline -. now in
      let until_timer =
        match Heap.peek t.timers with
        | Some (at, _) -> Float.max 0. (at -. now)
        | None -> until_deadline
      in
      let cap = if pending_sends t then 0.01 else 0.25 in
      let timeout = Float.min cap (Float.min until_deadline until_timer) in
      match Unix.select fds [] [] timeout with
      | ready, _, _ -> receive_ready t ready
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    end
  done

let check_port t i name =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Udp_runtime.%s: out of range" name)

let node_core t i =
  check_port t i "node_core";
  match t.endpoints.(i).rt with
  | Some rt -> Core.Runtime.core rt
  | None -> assert false

let node_alive t i =
  check_port t i "node_alive";
  t.endpoints.(i).alive

let kill_node t i =
  check_port t i "kill_node";
  let ep = t.endpoints.(i) in
  if ep.alive then begin
    ep.alive <- false;
    ep.incarnation <- ep.incarnation + 1;
    (* Close the socket: peers' subsequent sends surface ECONNREFUSED, the
       same evidence a really-crashed process leaves behind. *)
    (try Unix.close ep.fd with Unix.Unix_error _ -> ());
    Array.iter
      (fun l ->
        Queue.clear l.queue;
        l.dlen <- 0;
        l.dframes <- 0)
      ep.links
  end

let restart_node t i =
  check_port t i "restart_node";
  let ep = t.endpoints.(i) in
  if not ep.alive then begin
    ep.fd <- make_socket ~base_port:t.base_port i;
    ep.incarnation <- ep.incarnation + 1;
    ep.alive <- true;
    (* The crash lost all routing state: coverage starts over. *)
    Array.fill ep.covered 0 t.n false;
    ep.covered_count <- 0;
    Array.iter (fun l -> l.reported_down <- false) ep.links;
    wire_core t ep;
    (* Rejoin.  Static membership hands the restarted node the full view,
       exactly as [start] did for incarnation zero; dynamic membership
       reboots it as a joiner (its old view died with the process — it
       re-solicits admission, answered idempotently since its peers still
       hold it as a member).  The View_reset trace event tells the
       oracle's view-agreement tracker this is a fresh incarnation, whose
       first adoption may lawfully regress below the crashed one's. *)
    match ep.rt with
    | Some rt -> (
        match t.membership with
        | `Static ->
            Core.Runtime.dispatch rt Core.Node_core.Start;
            Core.Runtime.dispatch rt (Core.Node_core.Install_view (static_view t))
        | `Dynamic _ ->
            emit t (Ev.View_reset { node = ep.port });
            Core.Runtime.dispatch rt Core.Node_core.Start)
    | None -> ()
  end

let set_fault_injector t f = t.fault <- f

let coverage t =
  let covered = Array.fold_left (fun acc ep -> acc + ep.covered_count) 0 t.endpoints in
  (covered, t.n * (t.n - 1))

let accounted_bytes t i =
  check_port t i "accounted_bytes";
  t.endpoints.(i).accounted_bytes

let stats t = t.stats

let link_stats t ~src ~dst =
  check_port t src "link_stats";
  check_port t dst "link_stats";
  let l = t.endpoints.(src).links.(dst).lstats in
  {
    sent = l.sent;
    retries = l.retries;
    dropped_overflow = l.dropped_overflow;
    dropped_refused = l.dropped_refused;
    dropped_injected = l.dropped_injected;
  }

let undecodable t i =
  check_port t i "undecodable";
  t.endpoints.(i).undecodable

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter
      (fun ep -> if ep.alive then try Unix.close ep.fd with Unix.Unix_error _ -> ())
      t.endpoints
  end
