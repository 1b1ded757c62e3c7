open Apor_util
open Apor_sim
open Apor_overlay_core

type membership =
  | Static
  | Coordinator of { rtt_ms : float }
  | Dynamic of { initial : int; rtt_ms : float }

type t = {
  config : Config.t;
  n : int;
  initial : int; (* nodes live at start; the rest join via [join_node] *)
  engine : Message.t Engine.t;
  nodes : Node.t array;
  coordinator : Coordinator.t option;
  coordinator_port : int option;
  static_view : bool;
  mutable next_data_id : int;
  deliveries : (int, float) Hashtbl.t; (* data packet id -> delivery time *)
  dgram_sink : (now:float -> node:int -> Message.dgram -> unit) option ref;
}

let pad_matrix m extra ~fill =
  let n = Array.length m in
  Array.init (n + extra) (fun i ->
      Array.init (n + extra) (fun j ->
          if i = j then 0.
          else if i < n && j < n then m.(i).(j)
          else fill))

let create ~config ~rtt_ms ?loss ?(membership = Static) ?trace ?scheduler ~seed () =
  let n = Array.length rtt_ms in
  if n < 2 then invalid_arg "Cluster.create: need at least two nodes";
  (* A [Dynamic] overlay normally runs the decentralized quorum protocol;
     [config.centralized_membership] swaps in the old coordinator as the
     comparison baseline, with the same initial-members/joiners split. *)
  let with_coordinator, coordinator_rtt =
    match membership with
    | Static -> (false, 0.)
    | Coordinator { rtt_ms } -> (true, rtt_ms)
    | Dynamic { rtt_ms; _ } -> (config.Config.centralized_membership, rtt_ms)
  in
  let initial =
    match membership with
    | Static | Coordinator _ -> n
    | Dynamic { initial; _ } ->
        if initial < 2 || initial > n then
          invalid_arg "Cluster.create: Dynamic initial outside [2, n]";
        initial
  in
  let extra = if with_coordinator then 1 else 0 in
  let rtt_full = pad_matrix rtt_ms extra ~fill:coordinator_rtt in
  let loss_full = Option.map (fun l -> pad_matrix l extra ~fill:0.) loss in
  let network = Network.create ~rtt_ms:rtt_full ?loss:loss_full ~seed () in
  let engine = Engine.create ?scheduler ~network () in
  (* Point the collector at the virtual clock and mirror every packet's
     fate into the trace before wiring anything that can send. *)
  (match trace with
  | Some tr ->
      Apor_trace.Collector.set_clock tr (fun () -> Engine.now engine);
      Engine.set_tap engine
        (Some
           {
             Engine.on_send =
               (fun ~cls ~src ~dst ~bytes ->
                 Apor_trace.Collector.emit tr
                   (Apor_trace.Event.Send { cls; src; dst; bytes }));
             on_deliver =
               (fun ~cls ~src ~dst ~bytes ->
                 Apor_trace.Collector.emit tr
                   (Apor_trace.Event.Deliver { cls; src; dst; bytes }));
             on_drop =
               (fun ~cls ~src ~dst ~bytes ->
                 Apor_trace.Collector.emit tr
                   (Apor_trace.Event.Drop { cls; src; dst; bytes }));
           })
  | None -> ());
  let node_trace =
    Option.map (fun tr ev -> Apor_trace.Collector.emit tr ev) trace
  in
  let root = Rng.make ~seed in
  let coordinator_port = if with_coordinator then Some n else None in
  let send_from src_port ~dst_port msg =
    Engine.send engine ~cls:(Message.cls msg) ~src:src_port ~dst:dst_port
      ~bytes:(Message.size_bytes msg) msg
  in
  let deliveries = Hashtbl.create 256 in
  (* Install the dispatch handler before anything can schedule or send —
     a node's very first output may be a message due at t = 0, and the
     engine raises on a delivery with no handler installed.  The tables it
     reads are populated below, before [create] returns. *)
  let runtimes : Runtime.t option array = Array.make n None in
  let coordinator_cell = ref None in
  let dgram_sink = ref None in
  Engine.set_handler engine (fun ~dst ~src msg ->
      match (msg, !dgram_sink) with
      | Message.Dgram d, Some sink ->
          (* User datagrams short-circuit to the data-plane forwarder;
             they never enter the protocol state machines. *)
          sink ~now:(Engine.now engine) ~node:dst d
      | _ ->
      if dst < n then begin
        match runtimes.(dst) with
        | Some rt -> Runtime.dispatch rt (Node_core.Deliver { src_port = src; msg })
        | None -> ()
      end
      else begin
        match !coordinator_cell with
        | Some c ->
            Coordinator.handle_message c ~now:(Engine.now engine) ~src_port:src msg
        | None -> ()
      end);
  (* Decentralized dynamic membership: the first [initial] nodes are the
     genesis members, everyone else is a joiner whose contact list is the
     genesis set rotated by its own port — deterministic, and it spreads
     sponsorship across the membership instead of hammering port 0. *)
  let genesis_members = List.init initial Fun.id in
  let role_for port =
    match membership with
    | Static | Coordinator _ -> None
    | Dynamic _ when config.Config.centralized_membership -> None
    | Dynamic _ ->
        let module M = Apor_membership.Membership_core in
        if port < initial then Some (M.Member (M.genesis_view ~members:genesis_members))
        else
          Some
            (M.Joiner
               { contacts = List.init initial (fun i -> (port + i) mod initial) })
  in
  let nodes =
    Array.init n (fun port ->
        let core =
          Node_core.create ~config ~port ~capacity:(n + extra) ?coordinator_port
            ?membership:(role_for port)
            ~trace:(Option.is_some node_trace)
            ~rng:(Rng.split root (Printf.sprintf "node.%d" port))
            ()
        in
        let rt =
          Sim_runtime.create ~engine ~core
            ~deliver_data:(fun ~id ~origin:_ ->
              if not (Hashtbl.mem deliveries id) then
                Hashtbl.replace deliveries id (Engine.now engine))
            ?trace:node_trace ()
        in
        runtimes.(port) <- Some rt;
        Node.of_runtime ~now:(fun () -> Engine.now engine) rt)
  in
  let coordinator =
    if with_coordinator then begin
      let sweep_cell = ref (fun () -> ()) in
      let c =
        Coordinator.create ~self_port:n
          ~member_timeout_s:config.Config.membership_refresh_s
          {
            Coordinator.send = (fun ~dst_port msg -> send_from n ~dst_port msg);
            set_sweep_timer =
              (fun ~delay -> Engine.schedule engine ~delay (fun () -> !sweep_cell ()));
          }
      in
      (sweep_cell := fun () -> Coordinator.on_sweep_timer c ~now:(Engine.now engine));
      coordinator_cell := Some c;
      Some c
    end
    else None
  in
  {
    config;
    n;
    initial;
    engine;
    nodes;
    coordinator;
    coordinator_port;
    static_view = (membership = Static);
    next_data_id = 0;
    deliveries;
    dgram_sink;
  }

let n t = t.n
let engine t = t.engine
let engine_stats t = Engine.stats t.engine
let network t = Engine.network t.engine
let traffic t = Engine.traffic t.engine

let node t port =
  if port < 0 || port >= t.n then invalid_arg "Cluster.node: port out of range";
  t.nodes.(port)

let coordinator_port t = t.coordinator_port

let start t =
  (match t.coordinator with Some c -> Coordinator.start_expiry c | None -> ());
  for port = 0 to t.initial - 1 do
    Node.start t.nodes.(port)
  done;
  if t.static_view then begin
    (* Static membership: everyone gets the full view immediately. *)
    let members = List.init t.n Fun.id in
    let view = View.create ~version:1 ~members in
    Array.iter (fun node -> Node.install_view node view) t.nodes
  end

let join_node t port =
  if port < t.initial || port >= t.n then
    invalid_arg "Cluster.join_node: port is not a pending joiner";
  Node.start t.nodes.(port)

let run_until t horizon = Engine.run_until t.engine horizon
let now t = Engine.now t.engine

let best_hop t ~src ~dst = Node.best_hop (node t src) ~dst_port:dst
let freshness t ~src ~dst = Node.freshness (node t src) ~dst_port:dst

let route_ok t ~src ~dst =
  let net = network t in
  match best_hop t ~src ~dst with
  | None -> Network.link_up net src dst
  | Some hop when hop = dst || hop = src -> Network.link_up net src dst
  | Some hop -> Network.link_up net src hop && Network.link_up net hop dst

let routing_kbps t ~node:port ~t0 ~t1 =
  Traffic.kbps (traffic t) ~classes:[ Traffic.Routing ] ~node:port ~t0 ~t1

let routing_max_window_kbps t ~node:port ~window ~t0 ~t1 =
  Traffic.max_window_kbps (traffic t) ~classes:[ Traffic.Routing ] ~node:port ~window
    ~t0 ~t1

let total_kbps t ~node:port ~t0 ~t1 =
  Traffic.kbps (traffic t) ~classes:Traffic.all_classes ~node:port ~t0 ~t1

let fresh_data_id t =
  let id = t.next_data_id in
  t.next_data_id <- id + 1;
  id

let send_data t ~src ~dst =
  let id = fresh_data_id t in
  Node.send_data (node t src) ~dst_port:dst ~id;
  id

let send_data_direct t ~src ~dst =
  if dst < 0 || dst >= t.n then invalid_arg "Cluster.send_data_direct: dst out of range";
  let id = fresh_data_id t in
  let msg = Message.Data { id; origin = src; dst; ttl = 0 } in
  Engine.send t.engine ~cls:(Message.cls msg) ~src ~dst ~bytes:(Message.size_bytes msg) msg;
  id

let data_delivered_at t id = Hashtbl.find_opt t.deliveries id

let set_dgram_sink t sink = t.dgram_sink := Some sink

let send_dgram t ~src ~dst d =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Cluster.send_dgram: port out of range";
  let msg = Message.Dgram d in
  Engine.send t.engine ~cls:(Message.cls msg) ~src ~dst ~bytes:(Message.size_bytes msg)
    msg
