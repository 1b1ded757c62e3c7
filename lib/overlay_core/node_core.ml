open Apor_util
module Membership = Apor_membership.Membership_core

type timer =
  | Monitor_wakeup
  | Router_tick
  | Join_retry
  | Member_timer of Membership.timer

type input =
  | Start
  | Install_view of View.t
  | Deliver of { src_port : int; msg : Message.t }
  | Tick of timer
  | Leave
  | Link_report of { peer : int; up : bool }

type output =
  | Send of { dst_port : int; msg : Message.t }
  | Set_timer of { timer : timer; at : float }
  | Recommend of { server_port : int; dst_port : int; hop_port : int }
  | Trace of Apor_trace.Event.t

type router = Quorum of Router.t | Full_mesh of Router_fullmesh.t

(* The per-turn effect buffer.  [handle] stamps [now] on entry; the
   monitor/router effect closures append here, in call order, and [handle]
   reverses once on exit.  Shared by reference because the closures must
   exist before the node record does. *)
type buffer = { mutable now : float; mutable out_rev : output list }

type t = {
  config : Config.t;
  port : int;
  coordinator_port : int option;
  mem : Membership.t option;
  buf : buffer;
  monitor : Monitor.t;
  router : router;
  mutable view : View.t option;
  mutable started : bool;
  mutable joined : bool;
}

let push buf o = buf.out_rev <- o :: buf.out_rev

(* Router, membership and join timers are relative; the absolute time is
   the float the engine itself would compute from [clock +. delay]. *)
let set_timer buf timer ~delay = push buf (Set_timer { timer; at = buf.now +. delay })

let create ~config ~port ~capacity ?coordinator_port ?membership ?(trace = false) ~rng ()
    =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Node_core.create: " ^ msg));
  if coordinator_port <> None && membership <> None then
    invalid_arg "Node_core.create: coordinator and quorum membership are exclusive";
  let buf = { now = 0.; out_rev = [] } in
  let mem =
    Option.map
      (fun role ->
        Membership.create
          ~params:
            (Membership.derive ~routing_interval_s:config.routing_interval_s
               ~refresh_s:config.membership_refresh_s)
          ~port ~role ~trace ())
      membership
  in
  (* The router is created first as a forward reference so the monitor's
     death/recovery effects can reach it. *)
  let router_ref = ref None in
  (* Monitor verdicts also feed the membership core's lazy crash
     eviction; [Peer_report] only records evidence, so it never emits
     outputs of its own. *)
  let report_peer peer ~up =
    match mem with
    | Some m ->
        ignore (Membership.handle m ~now:buf.now (Membership.Peer_report { port = peer; up }))
    | None -> ()
  in
  let monitor =
    Monitor.create ~config ~self:port ~capacity ~rng:(Rng.split rng "monitor")
      {
        Monitor.send_probe =
          (fun ~dst ~seq -> push buf (Send { dst_port = dst; msg = Message.Probe { seq } }));
        set_wakeup = (fun ~at -> push buf (Set_timer { timer = Monitor_wakeup; at }));
        on_peer_death =
          (fun peer ->
            report_peer peer ~up:false;
            match !router_ref with
            | Some (Quorum r) -> Router.on_peer_death r ~now:buf.now ~port:peer
            | Some (Full_mesh _) | None -> ());
        on_peer_recovery =
          (fun peer ->
            report_peer peer ~up:true;
            match !router_ref with
            | Some (Quorum r) -> Router.on_peer_recovery r ~port:peer
            | Some (Full_mesh _) | None -> ());
      }
  in
  let send ~dst_port msg = push buf (Send { dst_port; msg }) in
  let set_tick_timer ~delay = set_timer buf Router_tick ~delay in
  let router =
    match config.algorithm with
    | Config.Quorum ->
        let trace = if trace then Some (fun ev -> push buf (Trace ev)) else None in
        Quorum
          (Router.create ~config ~self_port:port ~rng:(Rng.split rng "router") ~monitor
             ?trace
             { Router.send; set_tick_timer })
    | Config.Full_mesh ->
        Full_mesh
          (Router_fullmesh.create ~config ~self_port:port ~rng:(Rng.split rng "router")
             ~monitor
             { Router_fullmesh.send; set_tick_timer })
  in
  router_ref := Some router;
  {
    config;
    port;
    coordinator_port;
    mem;
    buf;
    monitor;
    router;
    view = None;
    started = false;
    joined = false;
  }

let port t = t.port

let install_view t v =
  let fresh =
    match t.view with
    | Some old -> View.version old < View.version v
    | None -> true
  in
  if fresh then begin
    t.view <- Some v;
    let peers =
      Array.to_list (View.members v) |> List.filter (fun p -> p <> t.port)
    in
    Monitor.set_peers t.monitor ~now:t.buf.now peers;
    match t.router with
    | Quorum r -> Router.set_view r ~now:t.buf.now v
    | Full_mesh r -> Router_fullmesh.set_view r ~now:t.buf.now v
  end

(* Interpret the membership core's effects: wire sends wrap in
   [Message.Member], timers embed as [Member_timer], installed views flow
   into the router exactly like coordinator broadcasts did. *)
let run_membership t outputs =
  List.iter
    (fun (o : Membership.output) ->
      match o with
      | Membership.Send { dst_port; msg } ->
          push t.buf (Send { dst_port; msg = Message.Member msg })
      | Membership.Set_timer { timer; delay } -> set_timer t.buf (Member_timer timer) ~delay
      | Membership.Install v ->
          t.joined <- true;
          install_view t v
      | Membership.Trace ev -> push t.buf (Trace ev))
    outputs

let membership_input t input =
  match t.mem with
  | None -> ()
  | Some m -> run_membership t (Membership.handle m ~now:t.buf.now input)

let join_step t =
  match t.coordinator_port with
  | None -> ()
  | Some coordinator ->
      if t.started then begin
        push t.buf (Send { dst_port = coordinator; msg = Message.Join { port = t.port } });
        (* Retry quickly until the first view lands, then settle into the
           lease-refresh cadence. *)
        let delay =
          if t.joined then t.config.membership_refresh_s /. 2. else 5.
        in
        set_timer t.buf Join_retry ~delay
      end

let best_hop t ~now ~dst_port =
  match t.router with
  | Quorum r -> Router.best_hop_port r ~now ~dst_port
  | Full_mesh r -> Router_fullmesh.best_hop_port r ~now ~dst_port

(* Receipt of a [Recommend] or [Recommend_delta] additionally surfaces each
   entry of the batch the router applied — rebuilt in full from a delta —
   as a {!Recommend} output in port space, so transports without a trace
   attached (the UDP runtime's coverage tracking) can observe routing
   progress without reaching into the router. *)
let surface_recommendation t ~src_port ~view:version dst hop =
  match t.view with
  | Some v when View.version v = version ->
      let m = View.size v in
      if dst >= 0 && dst < m && hop >= 0 && hop < m then begin
        let dst_port = View.port_of_rank v dst in
        if dst_port <> t.port then
          push t.buf
            (Recommend
               { server_port = src_port; dst_port; hop_port = View.port_of_rank v hop })
      end
  | Some _ | None -> ()

let rec deliver t ~src_port msg =
  match (msg : Message.t) with
  | Message.Probe { seq } ->
      push t.buf (Send { dst_port = src_port; msg = Message.Probe_reply { seq } })
  | Message.Probe_reply { seq } ->
      Monitor.handle_reply t.monitor ~now:t.buf.now ~src:src_port ~seq
  | Message.View { version; members } ->
      t.joined <- true;
      install_view t (View.create ~version ~members)
  | Message.Link_state _ | Message.Link_state_delta _ | Message.Ls_resync _
  | Message.Rec_resync _ -> (
      match t.router with
      | Quorum r -> Router.handle_message r ~now:t.buf.now ~src_port msg
      | Full_mesh r -> Router_fullmesh.handle_message r ~now:t.buf.now ~src_port msg)
  | Message.Recommend { view; _ } | Message.Recommend_delta { view; _ } -> (
      match t.router with
      | Quorum r ->
          Router.receive_recommendation r ~now:t.buf.now ~src_port
            ~surface:(surface_recommendation t ~src_port ~view)
            msg
      | Full_mesh _ -> ())
  | Message.Join _ | Message.Leave _ -> () (* we are not the coordinator *)
  | Message.Member w -> membership_input t (Membership.Deliver { src_port; msg = w })
  | Message.Relay { origin; target; inner } ->
      if target = t.port then
        (* unwrap: process as if it had arrived from the originator *)
        deliver t ~src_port:origin inner
      else if origin = src_port then
        (* we are the temporary one-hop: forward directly, exactly once *)
        push t.buf (Send { dst_port = target; msg })
  | Message.Dgram _ ->
      (* User datagrams are handled by the data-plane forwarder at the
         transport boundary; one reaching the protocol core means no
         forwarder is installed, and best-effort semantics say drop. *)
      ()

let apply t input =
  match (input : input) with
  | Start ->
      if not t.started then begin
        t.started <- true;
        (match t.router with
        | Quorum r -> Router.start r
        | Full_mesh r -> Router_fullmesh.start r);
        join_step t;
        membership_input t Membership.Start
      end
  | Install_view v -> install_view t v
  | Deliver { src_port; msg } -> deliver t ~src_port msg
  | Tick Monitor_wakeup -> Monitor.on_wakeup t.monitor ~now:t.buf.now
  | Tick Router_tick -> (
      match t.router with
      | Quorum r -> Router.on_tick_timer r ~now:t.buf.now
      | Full_mesh r -> Router_fullmesh.on_tick_timer r ~now:t.buf.now)
  | Tick Join_retry -> join_step t
  | Tick (Member_timer mt) -> membership_input t (Membership.Tick mt)
  | Leave -> (
      if t.mem <> None then begin
        t.started <- false;
        membership_input t Membership.Leave
      end;
      match t.coordinator_port with
      | None -> ()
      | Some coordinator ->
          t.started <- false;
          push t.buf (Send { dst_port = coordinator; msg = Message.Leave { port = t.port } }))
  | Link_report { peer; up } -> Monitor.force_status t.monitor peer ~up

let handle t ~now input =
  t.buf.now <- now;
  t.buf.out_rev <- [];
  apply t input;
  let outputs = List.rev t.buf.out_rev in
  t.buf.out_rev <- [];
  outputs

(* --- queries ------------------------------------------------------------ *)

let current_view t = t.view
let monitor t = t.monitor
let quorum_router t = match t.router with Quorum r -> Some r | Full_mesh _ -> None

let freshness t ~now ~dst_port =
  match t.router with
  | Quorum r -> Router.freshness r ~now ~dst_port
  | Full_mesh r -> Router_fullmesh.freshness r ~now ~dst_port

let double_rendezvous_failure_count t ~now =
  match t.router with
  | Quorum r -> Router.double_rendezvous_failure_count r ~now
  | Full_mesh _ -> 0

(* --- pretty-printing (tests and the golden-trace tooling) -------------- *)

let pp_timer ppf = function
  | Monitor_wakeup -> Format.pp_print_string ppf "monitor-wakeup"
  | Router_tick -> Format.pp_print_string ppf "router-tick"
  | Join_retry -> Format.pp_print_string ppf "join-retry"
  | Member_timer mt -> Format.fprintf ppf "member(%a)" Membership.pp_timer mt

let pp_input ppf = function
  | Start -> Format.pp_print_string ppf "start"
  | Install_view v -> Format.fprintf ppf "install-view(v%d)" (View.version v)
  | Deliver { src_port; msg } ->
      Format.fprintf ppf "deliver(from=%d, %a)" src_port Message.pp msg
  | Tick timer -> Format.fprintf ppf "tick(%a)" pp_timer timer
  | Leave -> Format.pp_print_string ppf "leave"
  | Link_report { peer; up } ->
      Format.fprintf ppf "link-report(peer=%d, %s)" peer (if up then "up" else "down")

let pp_output ppf = function
  | Send { dst_port; msg } -> Format.fprintf ppf "send(to=%d, %a)" dst_port Message.pp msg
  | Set_timer { timer; at } -> Format.fprintf ppf "set-timer(%a, @%.6fs)" pp_timer timer at
  | Recommend { server_port; dst_port; hop_port } ->
      Format.fprintf ppf "recommend(server=%d, dst=%d, hop=%d)" server_port dst_port
        hop_port
  | Trace _ -> Format.pp_print_string ppf "trace(..)"

let equal_timer (a : timer) (b : timer) = a = b

let equal_output a b =
  match (a, b) with
  | Send { dst_port = d1; msg = m1 }, Send { dst_port = d2; msg = m2 } ->
      d1 = d2 && Message.equal m1 m2
  | Set_timer { timer = t1; at = a1 }, Set_timer { timer = t2; at = a2 } ->
      equal_timer t1 t2 && a1 = a2
  | ( Recommend { server_port = s1; dst_port = d1; hop_port = h1 },
      Recommend { server_port = s2; dst_port = d2; hop_port = h2 } ) ->
      s1 = s2 && d1 = d2 && h1 = h2
  | Trace e1, Trace e2 -> e1 = e2
  | (Send _ | Set_timer _ | Recommend _ | Trace _), _ -> false
