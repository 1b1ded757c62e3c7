open Apor_util
open Apor_linkstate
open Apor_quorum
open Apor_core

type check =
  | Quorum_intersection
  | One_hop_optimality
  | Traffic_conservation
  | Datagram_conservation
  | View_agreement

type violation = { time : float; check : check; detail : string }

exception Violation of violation

(* One rendezvous server's link-state table, rebuilt from [Ls_ingest]
   events.  Emission is synchronous with the table update, so the
   received-at stamps — and therefore the freshness filter — coincide
   exactly with the router's. *)
type mirror_row = { vector : float array; received_at : float }

type mirror = { mutable mview : int; rows : (Nodeid.t, mirror_row) Hashtbl.t }

(* How many open failover episodes currently point [node] at [server], and
   when the last one ended — recommendations keep flowing for up to a
   staleness window after that. *)
type target = { mutable active : int; mutable last_end : float }

(* The newest two batches a server computed for a client, newest first:
   what the client may be applying from that server. *)
type computed = { newest : Rec_batch.t; previous : Rec_batch.t option }

(* One user datagram's lifecycle, rebuilt from the data-plane events. *)
type dgram = { ddst : int; mutable delivered : bool }

type t = {
  raise_on_violation : bool;
  slack_s : float;
  metric : Metric.t;
  staleness_s : float;
  grids : (int, Grid.t) Hashtbl.t; (* view version -> grid *)
  mirrors : (Nodeid.t, mirror) Hashtbl.t; (* server rank -> table mirror *)
  episodes : (Nodeid.t * Nodeid.t, Nodeid.t) Hashtbl.t; (* (node, dst) -> server *)
  targets : (Nodeid.t * Nodeid.t, target) Hashtbl.t; (* (node, server) *)
  computed : (int * Nodeid.t * Nodeid.t, computed) Hashtbl.t; (* (view, server, client) *)
  mutable computed_view : int; (* newest view in [computed] *)
  bytes : (int, int ref) Hashtbl.t; (* node -> traced bytes in + out *)
  adopted : (int, int) Hashtbl.t; (* port -> last adopted epoch *)
  first_adopt : (int, float) Hashtbl.t; (* epoch -> first adoption time *)
  dgrams : (int, dgram) Hashtbl.t; (* datagram id -> lifecycle *)
  mutable dgrams_sent : int;
  mutable dgrams_delivered : int;
  mutable violations : violation list; (* newest first *)
  mutable recommendations_checked : int;
  mutable applications_checked : int;
  mutable rec_gaps : int;
}

let create ?(raise_on_violation = true) ?(slack_s = 5.) ~metric ~staleness_s () =
  if staleness_s <= 0. then invalid_arg "Oracle.create: staleness_s must be positive";
  {
    raise_on_violation;
    slack_s;
    metric;
    staleness_s;
    grids = Hashtbl.create 4;
    mirrors = Hashtbl.create 64;
    episodes = Hashtbl.create 16;
    targets = Hashtbl.create 16;
    computed = Hashtbl.create 256;
    computed_view = -1;
    bytes = Hashtbl.create 64;
    adopted = Hashtbl.create 64;
    first_adopt = Hashtbl.create 16;
    dgrams = Hashtbl.create 1024;
    dgrams_sent = 0;
    dgrams_delivered = 0;
    violations = [];
    recommendations_checked = 0;
    applications_checked = 0;
    rec_gaps = 0;
  }

let check_name = function
  | Quorum_intersection -> "quorum-intersection"
  | One_hop_optimality -> "one-hop-optimality"
  | Traffic_conservation -> "traffic-conservation"
  | Datagram_conservation -> "datagram-conservation"
  | View_agreement -> "view-agreement"

let is_conservation = function
  | Traffic_conservation | Datagram_conservation -> true
  | Quorum_intersection | One_hop_optimality | View_agreement -> false

let pp_violation ppf v =
  Format.fprintf ppf "t=%.3f [%s] %s" v.time (check_name v.check) v.detail

let flag t ~time ~check detail =
  let v = { time; check; detail } in
  t.violations <- v :: t.violations;
  if t.raise_on_violation then raise (Violation v)

let violations t = List.rev t.violations
let violation_count t = List.length t.violations

let violations_outside t ~windows =
  let covered time = List.exists (fun (t0, t1) -> time >= t0 && time <= t1) windows in
  List.rev (List.filter (fun v -> not (covered v.time)) t.violations)
let recommendations_checked t = t.recommendations_checked
let applications_checked t = t.applications_checked
let rec_gaps t = t.rec_gaps

(* --- table mirrors ------------------------------------------------------ *)

let mirror_for t server =
  match Hashtbl.find_opt t.mirrors server with
  | Some m -> m
  | None ->
      let m = { mview = -1; rows = Hashtbl.create 32 } in
      Hashtbl.add t.mirrors server m;
      m

let ingest t ~now ~node ~owner ~view snapshot =
  let m = mirror_for t node in
  if m.mview <> view then begin
    Hashtbl.reset m.rows;
    m.mview <- view
  end;
  match Hashtbl.find_opt m.rows owner with
  | Some { received_at; _ } when received_at > now -> () (* Table.ingest's guard *)
  | Some _ | None ->
      Hashtbl.replace m.rows owner
        { vector = Snapshot.cost_vector snapshot t.metric; received_at = now }

let fresh_vector t m ~now owner =
  match Hashtbl.find_opt m.rows owner with
  | Some r when now -. r.received_at <= t.staleness_s -> Some r.vector
  | Some _ | None -> None

(* --- invariant 2: one-hop optimality ------------------------------------ *)

let check_entries t ~now ~server ~client ~view entries ~local =
  let m = mirror_for t server in
  if m.mview = view then
    match fresh_vector t m ~now client with
    | None ->
        flag t ~time:now ~check:One_hop_optimality
          (Printf.sprintf "server %d computed routes for client %d without a fresh copy of its table"
             server client)
    | Some cost_from_src ->
        List.iter
          (fun (dst, hop) ->
            if dst <> client then begin
              t.recommendations_checked <- t.recommendations_checked + 1;
              match fresh_vector t m ~now dst with
              | None ->
                  flag t ~time:now ~check:One_hop_optimality
                    (Printf.sprintf
                       "server %d recommended %d->%d without a fresh copy of %d's table"
                       server client dst dst)
              | Some cost_to_dst ->
                  let choice =
                    Best_hop.best ~src:client ~dst ~cost_from_src ~cost_to_dst
                  in
                  if choice.Best_hop.hop <> hop then
                    flag t ~time:now ~check:One_hop_optimality
                      (Printf.sprintf
                         "server %d%s: route %d->%d uses hop %d but the tables say %d (cost %g)"
                         server
                         (if local then " (local)" else "")
                         client dst hop choice.Best_hop.hop choice.Best_hop.cost)
            end)
          entries

(* --- invariant 1: grid-quorum intersection ------------------------------ *)

(* A recommendation's computer is valid for one endpoint when it is that
   endpoint itself, its rendezvous server in the current grid, or a
   failover server the endpoint recruited — active, or ended recently
   enough that its copy of the endpoint's table is still fresh. *)
let side_ok t grid ~now ~node ~server =
  server = node
  || Grid.is_rendezvous_for grid ~server ~client:node
  ||
  match Hashtbl.find_opt t.targets (node, server) with
  | Some tg -> tg.active > 0 || now -. tg.last_end <= t.staleness_s +. t.slack_s
  | None -> false

let check_applied t ~now ~node ~server ~dst ~view =
  t.applications_checked <- t.applications_checked + 1;
  match Hashtbl.find_opt t.grids view with
  | None -> () (* never saw this view install; nothing to check against *)
  | Some grid ->
      let bad side_node =
        flag t ~time:now ~check:Quorum_intersection
          (Printf.sprintf
             "node %d applied a route to %d computed at %d, which serves neither grid quorum nor failover role for %d"
             node dst server side_node)
      in
      if not (side_ok t grid ~now ~node ~server) then bad node
      else if not (side_ok t grid ~now ~node:dst ~server) then bad dst

(* --- invariant 2, applied side: recommendation integrity ---------------- *)

(* Batches are kept for the two newest views only: ranks are per view, and
   a client applies a batch of the view it computed in, within a routing
   interval or two. *)
let record_computed t ~server ~client ~view entries =
  if view > t.computed_view then begin
    t.computed_view <- view;
    Hashtbl.filter_map_inplace
      (fun (v, _, _) c -> if v >= view - 1 then Some c else None)
      t.computed
  end;
  match Rec_batch.of_entries ~epoch:0 (List.sort_uniq compare entries) with
  | None ->
      (* two hops for one destination: the optimality check judges it,
         and this pair's applications go unjudged *)
      Hashtbl.remove t.computed (view, server, client)
  | Some batch ->
      let previous =
        Option.map (fun c -> c.newest) (Hashtbl.find_opt t.computed (view, server, client))
      in
      Hashtbl.replace t.computed (view, server, client) { newest = batch; previous }

(* A remote route a client installs must be one its server computed for
   it, in one of the server's last two batches: a delta rebuilt on the
   wrong base would install a stale hop the optimality check never sees.
   A pair with no recorded batch (an older view) is not judged. *)
let check_integrity t ~now ~node ~server ~dst ~hop ~view =
  match Hashtbl.find_opt t.computed (view, server, node) with
  | None -> ()
  | Some { newest; previous } ->
      let holds b = Rec_batch.hop b dst = Some hop in
      if not (holds newest || Option.fold ~none:false ~some:holds previous) then
        flag t ~time:now ~check:One_hop_optimality
          (Printf.sprintf
             "recommendation integrity: node %d applied %d via %d from server %d, whose last two batches for it say %s"
             node dst hop server
             (String.concat " / "
                (List.map
                   (fun b ->
                     match Rec_batch.hop b dst with
                     | Some h -> string_of_int h
                     | None -> "nothing")
                   (newest :: Option.to_list previous))))

(* --- failover bookkeeping ----------------------------------------------- *)

let start_target t node server =
  match Hashtbl.find_opt t.targets (node, server) with
  | Some tg -> tg.active <- tg.active + 1
  | None -> Hashtbl.add t.targets (node, server) { active = 1; last_end = neg_infinity }

let end_target t ~now node server =
  match Hashtbl.find_opt t.targets (node, server) with
  | Some tg ->
      if tg.active > 0 then tg.active <- tg.active - 1;
      if now > tg.last_end then tg.last_end <- now
  | None -> ()

let failover_started t ~now ~node ~dst ~server =
  match Hashtbl.find_opt t.episodes (node, dst) with
  | Some old when old = server -> ()
  | Some old ->
      end_target t ~now node old;
      Hashtbl.replace t.episodes (node, dst) server;
      start_target t node server
  | None ->
      Hashtbl.replace t.episodes (node, dst) server;
      start_target t node server

let failover_stopped t ~now ~node ~dst =
  match Hashtbl.find_opt t.episodes (node, dst) with
  | Some server ->
      Hashtbl.remove t.episodes (node, dst);
      end_target t ~now node server
  | None -> ()

(* --- event dispatch ----------------------------------------------------- *)

let add_bytes t node b =
  match Hashtbl.find_opt t.bytes node with
  | Some r -> r := !r + b
  | None -> Hashtbl.add t.bytes node (ref b)

let observe t (tv : Collector.timed) =
  let now = tv.Collector.time in
  match tv.Collector.event with
  | Event.Send { src; bytes; _ } -> add_bytes t src bytes
  | Event.Deliver { dst; bytes; _ } -> add_bytes t dst bytes
  | Event.Drop _ -> () (* outgoing bytes were accounted by the Send *)
  | Event.Ls_push _ -> ()
  | Event.Ls_gap _ -> () (* nothing was stored; the mirror stays put *)
  | Event.Rec_gap _ -> t.rec_gaps <- t.rec_gaps + 1
  | Event.View_installed { view; size; _ } ->
      if not (Hashtbl.mem t.grids view) then Hashtbl.add t.grids view (Grid.build size)
  | Event.View_adopted { node; epoch; _ } ->
      (match Hashtbl.find_opt t.adopted node with
      | Some prev when epoch <= prev ->
          flag t ~time:now ~check:View_agreement
            (Printf.sprintf "port %d adopted epoch %d after already holding %d" node
               epoch prev)
      | Some _ | None -> ());
      Hashtbl.replace t.adopted node epoch;
      if not (Hashtbl.mem t.first_adopt epoch) then Hashtbl.add t.first_adopt epoch now
  | Event.View_reset { node } -> Hashtbl.remove t.adopted node
  | Event.Join_requested _ | Event.Join_admitted _ -> ()
  | Event.Ls_ingest { node; owner; view; snapshot } ->
      ingest t ~now ~node ~owner ~view snapshot
  | Event.Rec_computed { server; client; view; entries } ->
      check_entries t ~now ~server ~client ~view entries ~local:false;
      record_computed t ~server ~client ~view entries
  | Event.Rec_applied { node; server; dst; hop; view; local } ->
      check_applied t ~now ~node ~server ~dst ~view;
      if not local then check_integrity t ~now ~node ~server ~dst ~hop ~view
      else
        (* locally-computed route: re-run the same optimality check against
           the node's own mirror *)
        check_entries t ~now ~server:node ~client:node ~view [ (dst, hop) ] ~local:true
  | Event.Failover_started { node; dst; server; _ } ->
      failover_started t ~now ~node ~dst ~server
  | Event.Failover_stopped { node; dst; _ } -> failover_stopped t ~now ~node ~dst
  | Event.Dgram_sent { id; dst; _ } ->
      if Hashtbl.mem t.dgrams id then
        flag t ~time:now ~check:Datagram_conservation
          (Printf.sprintf "datagram id %d originated twice" id)
      else begin
        Hashtbl.add t.dgrams id { ddst = dst; delivered = false };
        t.dgrams_sent <- t.dgrams_sent + 1
      end
  | Event.Dgram_forwarded { id; node; _ } ->
      if not (Hashtbl.mem t.dgrams id) then
        flag t ~time:now ~check:Datagram_conservation
          (Printf.sprintf "node %d forwarded datagram %d that was never sent" node id)
  | Event.Dgram_delivered { id; node; _ } -> (
      match Hashtbl.find_opt t.dgrams id with
      | None ->
          flag t ~time:now ~check:Datagram_conservation
            (Printf.sprintf "node %d delivered datagram %d that was never sent" node id)
      | Some d ->
          if d.delivered then
            flag t ~time:now ~check:Datagram_conservation
              (Printf.sprintf "datagram %d delivered twice" id)
          else if node <> d.ddst then
            flag t ~time:now ~check:Datagram_conservation
              (Printf.sprintf "datagram %d delivered at node %d but was addressed to %d"
                 id node d.ddst)
          else begin
            d.delivered <- true;
            t.dgrams_delivered <- t.dgrams_delivered + 1
          end)
  | Event.Dgram_dropped { id; node; _ } ->
      if not (Hashtbl.mem t.dgrams id) then
        flag t ~time:now ~check:Datagram_conservation
          (Printf.sprintf "node %d dropped datagram %d that was never sent" node id)

let attach t collector = Collector.subscribe collector (observe t)

(* --- invariant 4: view agreement ---------------------------------------- *)

let check_view_agreement t ~now ~grace_s ~live =
  let target =
    List.fold_left
      (fun acc port ->
        match Hashtbl.find_opt t.adopted port with
        | Some e when e > acc -> e
        | _ -> acc)
      (-1) live
  in
  if target >= 0 then
    let since =
      match Hashtbl.find_opt t.first_adopt target with Some tm -> tm | None -> now
    in
    if now -. since > grace_s then
      List.iter
        (fun port ->
          match Hashtbl.find_opt t.adopted port with
          | Some e when e = target -> ()
          | Some e ->
              flag t ~time:now ~check:View_agreement
                (Printf.sprintf
                   "port %d still at epoch %d while epoch %d has been out for %.1fs" port
                   e target (now -. since))
          | None ->
              flag t ~time:now ~check:View_agreement
                (Printf.sprintf
                   "port %d holds no view while epoch %d has been out for %.1fs" port
                   target (now -. since)))
        live

(* --- invariant 3: traffic conservation ---------------------------------- *)

let check_traffic t ~n ~accounted ~now =
  for node = 0 to n - 1 do
    let engine = accounted node in
    let traced = match Hashtbl.find_opt t.bytes node with Some r -> !r | None -> 0 in
    if engine <> traced then
      flag t ~time:now ~check:Traffic_conservation
        (Printf.sprintf "node %d: transport accounted %d bytes but the trace saw %d" node
           engine traced)
  done

(* --- invariant 3b: datagram conservation -------------------------------- *)

let dgrams_sent t = t.dgrams_sent
let dgrams_delivered t = t.dgrams_delivered

let check_datagrams t ~sent ~delivered ~now =
  if t.dgrams_delivered > t.dgrams_sent then
    flag t ~time:now ~check:Datagram_conservation
      (Printf.sprintf "trace delivered %d datagrams but only %d were sent"
         t.dgrams_delivered t.dgrams_sent);
  if sent <> t.dgrams_sent then
    flag t ~time:now ~check:Datagram_conservation
      (Printf.sprintf "data plane claims %d datagrams sent but the trace saw %d" sent
         t.dgrams_sent);
  if delivered <> t.dgrams_delivered then
    flag t ~time:now ~check:Datagram_conservation
      (Printf.sprintf "data plane claims %d datagrams delivered but the trace saw %d"
         delivered t.dgrams_delivered)

(* --- static grid cover --------------------------------------------------- *)

let check_grid_cover grid =
  let n = Grid.size grid in
  let exception Bad of string in
  try
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Grid.connecting grid i j = [] then
          raise (Bad (Printf.sprintf "pair (%d,%d) has no connecting rendezvous" i j));
        let ri, ci = Grid.position grid i and rj, cj = Grid.position grid j in
        if ri <> rj && ci <> cj then begin
          (* Theorem 1's >= 2 intersection needs both crossing cells; on a
             ragged last row one may be blank, and the extra assignments
             then guarantee cover but not double intersection. *)
          let both_crossings =
            Grid.node_at grid ~row:ri ~col:cj <> None
            && Grid.node_at grid ~row:rj ~col:ci <> None
          in
          if both_crossings && List.length (Grid.common_rendezvous grid i j) < 2 then
            raise
              (Bad
                 (Printf.sprintf
                    "pair (%d,%d): crossing cells occupied yet fewer than 2 common rendezvous"
                    i j))
        end
      done
    done;
    Ok ()
  with Bad msg -> Error msg
