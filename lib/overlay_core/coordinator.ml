type effects = {
  send : dst_port:int -> Message.t -> unit;
  set_sweep_timer : delay:float -> unit;
}

type t = {
  self_port : int;
  member_timeout_s : float;
  eff : effects;
  leases : (int, float) Hashtbl.t; (* port -> last refresh *)
  mutable version : int;
  mutable sweeping : bool;
}

let create ~self_port ?(member_timeout_s = 1800.) eff =
  {
    self_port;
    member_timeout_s;
    eff;
    leases = Hashtbl.create 64;
    version = 0;
    sweeping = false;
  }

let members t =
  Hashtbl.fold (fun port _ acc -> port :: acc) t.leases [] |> List.sort Int.compare

let version t = t.version

let broadcast t =
  t.version <- t.version + 1;
  let member_list = members t in
  List.iter
    (fun port ->
      t.eff.send ~dst_port:port
        (Message.View { version = t.version; members = member_list }))
    member_list

let handle_message t ~now ~src_port msg =
  match (msg : Message.t) with
  | Message.Join { port } when port = src_port ->
      let known = Hashtbl.mem t.leases port in
      Hashtbl.replace t.leases port now;
      if known then
        (* Lease refresh: answer with the current view so a restarted node
           resynchronizes, but don't disturb the others. *)
        t.eff.send ~dst_port:port
          (Message.View { version = t.version; members = members t })
      else broadcast t
  | Message.Leave { port } when port = src_port ->
      if Hashtbl.mem t.leases port then begin
        Hashtbl.remove t.leases port;
        broadcast t
      end
  | Message.Join _ | Message.Leave _
  | Message.Probe _ | Message.Probe_reply _ | Message.Link_state _
  | Message.Link_state_delta _ | Message.Ls_resync _
  | Message.Recommend _ | Message.Recommend_delta _ | Message.Rec_resync _
  | Message.View _ | Message.Relay _ | Message.Dgram _ | Message.Member _ ->
      ()

let on_sweep_timer t ~now =
  if t.sweeping then begin
    let expired =
      Hashtbl.fold
        (fun port last acc -> if now -. last > t.member_timeout_s then port :: acc else acc)
        t.leases []
    in
    if expired <> [] then begin
      List.iter (Hashtbl.remove t.leases) expired;
      broadcast t
    end;
    t.eff.set_sweep_timer ~delay:(t.member_timeout_s /. 4.)
  end

let start_expiry t =
  if not t.sweeping then begin
    t.sweeping <- true;
    t.eff.set_sweep_timer ~delay:(t.member_timeout_s /. 4.)
  end
