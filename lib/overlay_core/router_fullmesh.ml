open Apor_util
open Apor_linkstate
open Apor_core

type effects = {
  send : dst_port:int -> Message.t -> unit;
  set_tick_timer : delay:float -> unit;
}

type ctx = {
  view : View.t;
  self : Nodeid.t;
  table : Table.t;
  routes : Best_hop.choice option array; (* refreshed every tick *)
  mutable announce_epoch : int; (* stamps full broadcasts; RON sends no deltas *)
}

type t = {
  config : Config.t;
  self_port : int;
  rng : Rng.t;
  monitor : Monitor.t;
  eff : effects;
  mutable ctx : ctx option;
  mutable started : bool;
}

let create ~config ~self_port ~rng ~monitor eff =
  { config; self_port; rng; monitor; eff; ctx = None; started = false }

let view t = Option.map (fun c -> c.view) t.ctx

let set_view t ~now:_ v =
  let stale =
    match t.ctx with
    | Some ctx -> View.version ctx.view >= View.version v
    | None -> false
  in
  if not stale then begin
    match View.rank_of_port v t.self_port with
    | None -> t.ctx <- None
    | Some self ->
        let m = View.size v in
        t.ctx <-
          Some
            {
              view = v;
              self;
              table = Table.create ~n:m ~owner:self;
              routes = Array.make m None;
              announce_epoch = 0;
            }
  end

let make_snapshot t ctx =
  let m = View.size ctx.view in
  let entries =
    Array.init m (fun rank ->
        if rank = ctx.self then Entry.self
        else Monitor.entry_for t.monitor (View.port_of_rank ctx.view rank))
  in
  Snapshot.create ~owner:ctx.self entries

let recompute_routes t ctx ~now =
  let metric = t.config.metric in
  let m = View.size ctx.view in
  let own = make_snapshot t ctx in
  let max_age = Config.staleness_s t.config in
  for dst = 0 to m - 1 do
    if dst <> ctx.self then begin
      let choice =
        match Table.fresh_row ctx.table dst ~now ~max_age with
        | None ->
            (* No announcement from dst: fall back to the direct link view. *)
            Best_hop.direct ~dst ~cost:(Snapshot.cost own metric dst)
        | Some row -> Best_hop.best_rows metric ~src:own ~dst:row
      in
      ctx.routes.(dst) <-
        (if Float.is_finite choice.Best_hop.cost then Some choice else None)
    end
  done

let tick t ~now =
  match t.ctx with
  | None -> ()
  | Some ctx ->
      let snapshot = make_snapshot t ctx in
      let epoch = ctx.announce_epoch in
      ctx.announce_epoch <- epoch + 1;
      Table.set_own_row ctx.table snapshot ~epoch ~now;
      let m = View.size ctx.view in
      for rank = 0 to m - 1 do
        if rank <> ctx.self then
          t.eff.send ~dst_port:(View.port_of_rank ctx.view rank)
            (Message.Link_state { view = View.version ctx.view; epoch; snapshot })
      done;
      recompute_routes t ctx ~now

let on_tick_timer t ~now =
  if t.started then begin
    tick t ~now;
    t.eff.set_tick_timer ~delay:t.config.routing_interval_s
  end

let start t =
  if not t.started then begin
    t.started <- true;
    let phase = Rng.float t.rng t.config.routing_interval_s in
    t.eff.set_tick_timer ~delay:phase
  end

let handle_message t ~now ~src_port:_ msg =
  match (msg : Message.t) with
  | Message.Link_state { view = version; epoch; snapshot } -> (
      match t.ctx with
      | Some ctx when View.version ctx.view = version
                      && Snapshot.size snapshot = View.size ctx.view ->
          ignore (Table.ingest ctx.table snapshot ~epoch ~now)
      | Some _ | None -> ())
  | Message.Link_state_delta _ | Message.Ls_resync _ | Message.Recommend _
  | Message.Recommend_delta _ | Message.Rec_resync _
  | Message.Probe _ | Message.Probe_reply _ | Message.Join _
  | Message.Leave _ | Message.View _ | Message.Relay _ | Message.Dgram _
  | Message.Member _ ->
      ()

let best_hop_port t ~now ~dst_port =
  match t.ctx with
  | None -> None
  | Some ctx -> (
      match View.rank_of_port ctx.view dst_port with
      | None -> None
      | Some dst when dst = ctx.self -> Some dst_port
      | Some dst -> (
          recompute_routes t ctx ~now;
          match ctx.routes.(dst) with
          | Some choice -> Some (View.port_of_rank ctx.view choice.Best_hop.hop)
          | None -> None))

let freshness t ~now ~dst_port =
  match t.ctx with
  | None -> None
  | Some ctx -> (
      match View.rank_of_port ctx.view dst_port with
      | None -> None
      | Some dst -> Table.row_age ctx.table dst ~now)
