open Apor_util
open Apor_quorum
open Apor_linkstate
open Apor_core
module Ev = Apor_trace.Event

type effects = {
  send : dst_port:int -> Message.t -> unit;
  set_tick_timer : delay:float -> unit;
}

type route = { hop : Nodeid.t; received_at : float; via_port : int }

type failover_episode = {
  server : Nodeid.t;     (* rank of the failover rendezvous in use *)
  since : float;
  tried : Nodeid.Set.t;  (* ranks already tried this episode *)
}

(* All per-view routing state; rebuilt wholesale on membership change. *)
type ctx = {
  view : View.t;
  grid : Grid.t;
  self : Nodeid.t; (* own rank *)
  servers : Nodeid.t list; (* own default rendezvous servers, announced to every tick *)
  table : Table.t;
  routes : route option array;
  rec_last : float array; (* last recommendation time per destination rank *)
  rec_pair : (int, float) Hashtbl.t; (* server rank * m + dst rank -> time *)
  mutable failover : failover_episode Nodeid.Map.t; (* per destination rank *)
  mutable suspected_dead : Nodeid.Set.t;
  created_at : float;
  (* Delta announcement state (all per-view, like everything else here).
     [announce_epoch] stamps the next announcement; [last_announced] is the
     snapshot of the previous one — the base receivers hold our deltas
     against; [last_sent] remembers, per rendezvous server, the last epoch
     we sent it, so we only delta-encode against a base the server has. *)
  mutable announce_epoch : int;
  mutable last_announced : Snapshot.t option;
  last_sent : (Nodeid.t, int) Hashtbl.t;
  (* Per-destination connecting rendezvous servers; a pure function of the
     grid, cached because the failover maintenance pass asks for every
     destination every tick. *)
  connecting_memo : Nodeid.t list option array;
  (* Incremental round-two state: cost vectors mirroring our table rows,
     repaired in O(changes) per ingested announcement. *)
  cache : Best_hop.Cache.t option;
}

type t = {
  config : Config.t;
  self_port : int;
  rng : Rng.t;
  monitor : Monitor.t;
  eff : effects;
  (* Emission sites match on this directly so a disabled trace costs
     neither a call nor an event allocation. *)
  trace : (Ev.t -> unit) option;
  mutable ctx : ctx option;
  mutable started : bool;
}

let create ~config ~self_port ~rng ~monitor ?trace eff =
  { config; self_port; rng; monitor; eff; trace; ctx = None; started = false }

let view t = Option.map (fun c -> c.view) t.ctx

let remote_timeout t = t.config.remote_failure_factor *. t.config.routing_interval_s

(* No failover (or failure bookkeeping) until the first full measurement and
   routing cycle has had a chance to complete: worst-case probe phase plus
   two announce/recommend cycles, with slack for propagation. *)
let warmup t = t.config.probe_interval_s +. (4. *. t.config.routing_interval_s)

let pair_key ctx server dst = (server * View.size ctx.view) + dst

let set_view t ~now v =
  let stale =
    match t.ctx with
    | Some ctx -> View.version ctx.view >= View.version v
    | None -> false
  in
  if not stale then begin
    match View.rank_of_port v t.self_port with
    | None -> t.ctx <- None (* we are not a member of this view *)
    | Some self ->
        let m = View.size v in
        let grid = Grid.build m in
        (* Carry what provably survives the membership change, so routing
           does not restart cold on every join/leave.  Ranks shift when
           members come and go, so everything carried is permuted through
           the old-rank-of-new-rank map.  Learned routes survive whenever
           destination and hop are both still members (a one-hop path's
           validity does not depend on grid geometry; received_at keeps
           aging them out as usual).  Cached cost vectors additionally
           require the owner's rendezvous geometry to be intact
           (Grid.remap): a node whose row/column composition changed will
           be served by different rendezvous, and its stale vector must
           not answer round-two queries meanwhile.  Tables, failover
           episodes and recommendation timestamps are deliberately
           dropped — their consumers (oracle mirrors, failover pacing)
           are keyed by view version and reset cleanly. *)
        let carried_routes, carried_cache =
          match t.ctx with
          | None -> (None, None)
          | Some old ->
              let map = View.rank_map ~prev:old.view ~next:v in
              let inv = Array.make (View.size old.view) (-1) in
              Array.iteri
                (fun r o -> match o with Some o -> inv.(o) <- r | None -> ())
                map;
              let routes = Array.make m None in
              Array.iteri
                (fun r o ->
                  match o with
                  | Some old_r -> (
                      match old.routes.(old_r) with
                      | Some route when inv.(route.hop) >= 0 ->
                          routes.(r) <- Some { route with hop = inv.(route.hop) }
                      | Some _ | None -> ())
                  | None -> ())
                map;
              let cache =
                match old.cache with
                | Some c when t.config.incremental_rendezvous && m >= 2 ->
                    let kept = Grid.remap ~prev:old.grid ~next:grid ~map in
                    Some (Best_hop.Cache.remap c ~n:m ~map:kept)
                | Some _ | None -> None
              in
              (Some routes, cache)
        in
        t.ctx <-
          Some
            {
              view = v;
              grid;
              self;
              servers = Grid.rendezvous_servers grid self;
              table = Table.create ~n:m ~owner:self;
              routes =
                (match carried_routes with
                | Some r -> r
                | None -> Array.make m None);
              rec_last = Array.make m neg_infinity;
              rec_pair = Hashtbl.create 64;
              failover = Nodeid.Map.empty;
              suspected_dead = Nodeid.Set.empty;
              created_at = now;
              (* Seeded from the clock, not zero: epochs must stay monotone
                 across a crash + restart-with-rejoin (the chaos runtime
                 reboots node processes), or servers holding the previous
                 incarnation's higher epochs would reject the fresh
                 announcements as out of order.  Within one incarnation the
                 counter advances one per routing tick — at most as fast as
                 time over routing_interval — so a restart after more than
                 one routing interval of downtime always starts ahead. *)
              announce_epoch =
                2 + int_of_float (now /. Float.max 1e-6 t.config.routing_interval_s);
              last_announced = None;
              last_sent = Hashtbl.create 8;
              connecting_memo = Array.make m None;
              cache =
                (match carried_cache with
                | Some _ as c -> c
                | None ->
                    if t.config.incremental_rendezvous && m >= 2 then
                      Some (Best_hop.Cache.create ~n:m)
                    else None);
            };
        (match t.trace with
        | Some emit ->
            emit (Ev.View_installed { node = self; view = View.version v; size = m })
        | None -> ())
  end

(* --- helpers over a context ------------------------------------------- *)

let make_snapshot t ctx =
  let m = View.size ctx.view in
  let entries =
    Array.init m (fun rank ->
        if rank = ctx.self then Entry.self
        else Monitor.entry_for t.monitor (View.port_of_rank ctx.view rank))
  in
  Snapshot.create ~owner:ctx.self entries

(* The default rendezvous servers connecting us to [dst]: common rendezvous
   of the pair, excluding ourselves and the destination (we track those two
   separately — we compute locally for our own clients, and the destination
   serving us is just the direct announcement). *)
let default_connecting ctx dst =
  match ctx.connecting_memo.(dst) with
  | Some servers -> servers
  | None ->
      let servers =
        Grid.connecting ctx.grid ctx.self dst
        |> List.filter (fun k -> k <> ctx.self && k <> dst)
      in
      ctx.connecting_memo.(dst) <- Some servers;
      servers

let proximally_dead t ctx rank =
  rank <> ctx.self && not (Monitor.alive t.monitor (View.port_of_rank ctx.view rank))

(* A rendezvous server [k] has failed with respect to destination [dst] if
   we cannot reach it (proximal) or it has stopped recommending routes to
   [dst] (remote, Section 4.1).  With footnote-8 relaying enabled a dead
   direct link no longer severs the exchange, so only recommendation
   silence counts. *)
let failed_wrt t ctx ~now k dst =
  ((not t.config.relay_link_state) && proximally_dead t ctx k)
  ||
  let last =
    match Hashtbl.find_opt ctx.rec_pair (pair_key ctx k dst) with
    | Some time -> time
    | None -> ctx.created_at
  in
  now -. last > remote_timeout t

(* Has the pair (self, dst) lost *every* connecting rendezvous?  Three ways
   a pair stays connected: a third-party common rendezvous still works; dst
   itself is one of our rendezvous servers and its recommendations still
   flow; or dst is our client and we hold a fresh copy of its table
   (we compute locally).  Only when all fail is this the paper's "double
   rendezvous failure". *)
let pair_failed t ctx ~now dst =
  let third_party_ok =
    List.exists (fun k -> not (failed_wrt t ctx ~now k dst)) (default_connecting ctx dst)
  in
  third_party_ok = false
  && (not
        (Grid.is_rendezvous_for ctx.grid ~server:dst ~client:ctx.self
        && not (failed_wrt t ctx ~now dst dst)))
  && not
       (Grid.is_rendezvous_for ctx.grid ~server:ctx.self ~client:dst
       && Table.fresh_row ctx.table dst ~now ~max_age:(Config.staleness_s t.config) <> None)

let dst_alive_evidence t ctx ~now dst =
  Monitor.alive t.monitor (View.port_of_rank ctx.view dst)
  ||
  let m = View.size ctx.view in
  let rec scan rank =
    if rank >= m then false
    else if rank <> dst && rank <> ctx.self then begin
      match Table.fresh_row ctx.table rank ~now ~max_age:(Config.staleness_s t.config) with
      | Some row when Snapshot.reaches row dst -> true
      | Some _ | None -> scan (rank + 1)
    end
    else scan (rank + 1)
  in
  scan 0

(* Footnote 8: when our link to [rank] is down, pick a live client whose
   table says it can still reach [rank] and use it as a temporary one-hop
   for the message. *)
let relay_hop t ctx ~now rank =
  let m = View.size ctx.view in
  let rec scan c =
    if c >= m then None
    else if c <> ctx.self && c <> rank
            && Monitor.alive t.monitor (View.port_of_rank ctx.view c) then begin
      match Table.fresh_row ctx.table c ~now ~max_age:(Config.staleness_s t.config) with
      | Some row when Snapshot.reaches row rank -> Some c
      | Some _ | None -> scan (c + 1)
    end
    else scan (c + 1)
  in
  scan 0

(* Send a routing message to [rank]: directly when the link is believed
   alive, through a temporary one-hop when it is down and relaying is
   enabled (footnote 8), directly (and probably lost) otherwise. *)
let send_routed t ctx ~now rank msg =
  let port = View.port_of_rank ctx.view rank in
  if Monitor.alive t.monitor port || not t.config.relay_link_state then
    t.eff.send ~dst_port:port msg
  else begin
    match relay_hop t ctx ~now rank with
    | Some c ->
        t.eff.send ~dst_port:(View.port_of_rank ctx.view c)
          (Message.Relay { origin = t.self_port; target = port; inner = msg })
    | None -> t.eff.send ~dst_port:port msg
  end

let emit_push t ctx rank =
  match t.trace with
  | Some emit ->
      emit (Ev.Ls_push { node = ctx.self; server = rank; view = View.version ctx.view })
  | None -> ()

let announce_full t ctx ~now rank ~epoch snapshot =
  Hashtbl.replace ctx.last_sent rank epoch;
  send_routed t ctx ~now rank
    (Message.Link_state { view = View.version ctx.view; epoch; snapshot });
  emit_push t ctx rank

(* Round one to one server: delta form when the server holds the previous
   epoch and the delta actually is smaller than the [3n]-byte snapshot
   (after a churn-heavy interval it may not be); full form otherwise. *)
let announce_to t ctx ~now rank ~epoch ~delta snapshot =
  match delta with
  | Some d
    when Hashtbl.find_opt ctx.last_sent rank = Some (epoch - 1)
         && Wire.Delta.payload_bytes d < Snapshot.payload_bytes snapshot ->
      Hashtbl.replace ctx.last_sent rank epoch;
      send_routed t ctx ~now rank
        (Message.Link_state_delta { view = View.version ctx.view; delta = d });
      emit_push t ctx rank
  | Some _ | None -> announce_full t ctx ~now rank ~epoch snapshot

let cost_changes metric changes =
  List.map (fun (id, e) -> (id, Metric.cost metric e)) changes

let start_failover t ctx ~now ~tried dst =
  let excluded =
    List.fold_left
      (fun acc k -> if proximally_dead t ctx k then Nodeid.Set.add k acc else acc)
      tried
      (Grid.failover_candidates ctx.grid ~dst)
  in
  match Failover.choose ~rng:t.rng ctx.grid ~self:ctx.self ~dst ~excluded with
  | Some server ->
      ctx.failover <-
        Nodeid.Map.add dst
          { server; since = now; tried = Nodeid.Set.add server tried }
          ctx.failover;
      (match t.trace with
      | Some emit ->
          emit
            (Ev.Failover_started
               { node = ctx.self; dst; server; view = View.version ctx.view })
      | None -> ());
      (* Ship our link state immediately so the failover server can serve
         us on its very next recommendation cycle.  Resend the snapshot of
         the last tick rather than a fresh one: announced content must stay
         a function of the epoch, or a racing delta would silently rebuild
         the wrong row at the receiver. *)
      (match ctx.last_announced with
      | Some snapshot ->
          announce_full t ctx ~now server ~epoch:(ctx.announce_epoch - 1) snapshot
      | None -> () (* not yet ticked; the first tick announces to failover servers *))
  | None ->
      (* Candidate pool exhausted.  Restart the episode if the destination
         shows signs of life, otherwise conclude it is dead (Section 4.1's
         liveness check) and stop trying. *)
      let had_episode = Nodeid.Map.mem dst ctx.failover in
      ctx.failover <- Nodeid.Map.remove dst ctx.failover;
      let alive = dst_alive_evidence t ctx ~now dst in
      if not alive then ctx.suspected_dead <- Nodeid.Set.add dst ctx.suspected_dead;
      if had_episode then begin
        match t.trace with
        | Some emit ->
            emit
              (Ev.Failover_stopped
                 {
                   node = ctx.self;
                   dst;
                   view = View.version ctx.view;
                   reason = (if alive then Ev.Exhausted else Ev.Destination_dead);
                 })
        | None -> ()
      end

(* Failover maintenance pass: detect double rendezvous failures, babysit
   running failover episodes, revert to defaults once they recover. *)
let maintain t ctx ~now =
  if now -. ctx.created_at >= warmup t then begin
    let m = View.size ctx.view in
    for dst = 0 to m - 1 do
      if dst <> ctx.self then begin
        if not (pair_failed t ctx ~now dst) then begin
          (* Defaults recovered: drop any failover and suspicion. *)
          if Nodeid.Map.mem dst ctx.failover then begin
            ctx.failover <- Nodeid.Map.remove dst ctx.failover;
            match t.trace with
            | Some emit ->
                emit
                  (Ev.Failover_stopped
                     {
                       node = ctx.self;
                       dst;
                       view = View.version ctx.view;
                       reason = Ev.Recovered;
                     })
            | None -> ()
          end;
          ctx.suspected_dead <- Nodeid.Set.remove dst ctx.suspected_dead
        end
        else if Nodeid.Set.mem dst ctx.suspected_dead then begin
          if dst_alive_evidence t ctx ~now dst then begin
            ctx.suspected_dead <- Nodeid.Set.remove dst ctx.suspected_dead;
            start_failover t ctx ~now ~tried:Nodeid.Set.empty dst
          end
        end
        else begin
          match Nodeid.Map.find_opt dst ctx.failover with
          | None -> start_failover t ctx ~now ~tried:Nodeid.Set.empty dst
          | Some episode ->
              let delivered =
                match Hashtbl.find_opt ctx.rec_pair (pair_key ctx episode.server dst) with
                | Some time -> now -. time <= remote_timeout t
                | None -> false
              in
              if delivered then ()
              else if now -. episode.since > remote_timeout t then begin
                (* This failover server did not deliver a route to dst:
                   check the destination is alive, then try the next
                   candidate (Section 4.1). *)
                if dst_alive_evidence t ctx ~now dst then
                  start_failover t ctx ~now ~tried:episode.tried dst
                else begin
                  ctx.failover <- Nodeid.Map.remove dst ctx.failover;
                  ctx.suspected_dead <- Nodeid.Set.add dst ctx.suspected_dead;
                  match t.trace with
                  | Some emit ->
                      emit
                        (Ev.Failover_stopped
                           {
                             node = ctx.self;
                             dst;
                             view = View.version ctx.view;
                             reason = Ev.Destination_dead;
                           })
                  | None -> ()
                end
              end
        end
      end
    done
  end

(* One routing interval's worth of work. *)
let tick t ~now =
  match t.ctx with
  | None -> ()
  | Some ctx ->
      let snapshot = make_snapshot t ctx in
      let epoch = ctx.announce_epoch in
      let metric = t.config.metric in
      Table.set_own_row ctx.table snapshot ~epoch ~now;
      (match t.trace with
      | Some emit ->
          emit
            (Ev.Ls_ingest
               {
                 node = ctx.self;
                 owner = ctx.self;
                 view = View.version ctx.view;
                 snapshot;
               })
      | None -> ());
      (* One diff of this tick's snapshot against the previous one feeds
         both consumers — the incremental cache repair and the delta
         announcement — instead of each diffing the pair separately. *)
      let have_own_vector =
        match ctx.cache with
        | Some cache -> Best_hop.Cache.vector cache ctx.self <> None
        | None -> false
      in
      let changes_prev =
        match ctx.last_announced with
        | Some prev when t.config.delta_link_state || have_own_vector ->
            Some (Snapshot.diff ~prev ~next:snapshot)
        | Some _ | None -> None
      in
      (* Keep our own cost vector in the incremental cache, by diff against
         the previous tick's snapshot when we have one. *)
      (match ctx.cache with
      | Some cache -> (
          match changes_prev with
          | Some changes when have_own_vector ->
              Best_hop.Cache.update_vector cache ctx.self
                ~changes:(cost_changes metric changes)
          | Some _ | None ->
              Best_hop.Cache.set_vector cache ctx.self
                (Snapshot.cost_vector snapshot metric))
      | None -> ());
      let delta =
        if t.config.delta_link_state then
          match changes_prev with
          | Some changes -> Some { Wire.Delta.owner = ctx.self; epoch; changes }
          | None -> None
        else None
      in
      ctx.last_announced <- Some snapshot;
      ctx.announce_epoch <- epoch + 1;
      (* Round one: announce to default servers plus active failover servers. *)
      let failover_servers =
        Nodeid.Map.fold (fun _ e acc -> Nodeid.Set.add e.server acc) ctx.failover
          Nodeid.Set.empty
      in
      let servers =
        List.fold_left
          (fun acc k -> Nodeid.Set.add k acc)
          failover_servers ctx.servers
      in
      Nodeid.Set.iter (fun k -> announce_to t ctx ~now k ~epoch ~delta snapshot) servers;
      (* Round two, server role: recommend between every pair of clients
         with fresh tables.  Anyone whose announcements we hold fresh is a
         client — that uniformly covers default and failover clients. *)
      let max_age = Config.staleness_s t.config in
      let fresh_ranks =
        List.filter
          (fun rank -> Table.fresh_row ctx.table rank ~now ~max_age <> None)
          (Table.known_rows ctx.table)
      in
      let best_for =
        match ctx.cache with
        | Some cache -> fun ~src ~dst -> Best_hop.Cache.best cache ~src ~dst
        | None ->
            (* Baseline: rebuild every fresh row's cost vector and rescan
               all n candidates for every pair, every tick. *)
            let vectors = Hashtbl.create 32 in
            List.iter
              (fun rank ->
                match Table.row ctx.table rank with
                | Some row ->
                    Hashtbl.replace vectors rank (Snapshot.cost_vector row metric)
                | None -> ())
              fresh_ranks;
            fun ~src ~dst ->
              Best_hop.best ~src ~dst
                ~cost_from_src:(Hashtbl.find vectors src)
                ~cost_to_dst:(Hashtbl.find vectors dst)
      in
      let clients = List.filter (fun rank -> rank <> ctx.self) fresh_ranks in
      List.iter
        (fun i ->
          let entries =
            List.filter_map
              (fun j ->
                if j = i then None
                else begin
                  let choice = best_for ~src:i ~dst:j in
                  Some (j, choice.Best_hop.hop)
                end)
              fresh_ranks
          in
          if entries <> [] then begin
            send_routed t ctx ~now i
              (Message.Recommend { view = View.version ctx.view; entries });
            match t.trace with
            | Some emit ->
                emit
                  (Ev.Rec_computed
                     {
                       server = ctx.self;
                       client = i;
                       view = View.version ctx.view;
                       entries;
                     })
            | None -> ()
          end)
        clients;
      (* Section 4.2: we hold our clients' tables, so compute routes to
         them locally (does not count as a received recommendation for the
         freshness metrics — only real round-two messages do). *)
      List.iter
        (fun j ->
          let choice = best_for ~src:ctx.self ~dst:j in
          if Float.is_finite choice.Best_hop.cost then begin
            ctx.routes.(j) <-
              Some { hop = choice.Best_hop.hop; received_at = now; via_port = t.self_port };
            match t.trace with
            | Some emit ->
                emit
                  (Ev.Rec_applied
                     {
                       node = ctx.self;
                       server = ctx.self;
                       dst = j;
                       hop = choice.Best_hop.hop;
                       view = View.version ctx.view;
                       local = true;
                     })
            | None -> ()
          end)
        clients;
      maintain t ctx ~now

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

(* --- message handling -------------------------------------------------- *)

(* A freshly stored row must reach both consumers in lockstep: the
   incremental cache (which answers round-two queries from it) and the
   trace, whose [Ls_ingest] the oracle mirrors.  Emitting only on an
   actual store keeps the oracle's mirror equal to the table even when
   out-of-order packets are rejected. *)
let row_stored t ctx ~version owner snapshot =
  (match ctx.cache with
  | Some cache ->
      Best_hop.Cache.set_vector cache owner (Snapshot.cost_vector snapshot t.config.metric)
  | None -> ());
  match t.trace with
  | Some emit ->
      emit (Ev.Ls_ingest { node = ctx.self; owner; view = version; snapshot })
  | None -> ()

let handle_link_state t ~now ~view:version ~epoch snapshot =
  match t.ctx with
  | Some ctx
    when View.version ctx.view = version
         && Snapshot.size snapshot = View.size ctx.view
         && Snapshot.owner snapshot <> ctx.self ->
      if Table.ingest ctx.table snapshot ~epoch ~now then
        row_stored t ctx ~version (Snapshot.owner snapshot) snapshot
  | Some _ | None -> ()

let handle_link_state_delta t ~now ~view:version (delta : Wire.Delta.t) =
  match t.ctx with
  | Some ctx
    when View.version ctx.view = version && delta.Wire.Delta.owner <> ctx.self -> (
      let owner = delta.Wire.Delta.owner in
      (* Without a trace attached, nothing retains snapshots read from the
         table (the cache copies costs out immediately), so the table may
         recycle its private row copies in place; the oracle's mirror
         requires the copy semantics. *)
      match
        Table.apply_delta ~reuse:(Option.is_none t.trace) ctx.table delta ~now
      with
      | `Applied snapshot -> (
          (match ctx.cache with
          | Some cache when Best_hop.Cache.vector cache owner <> None ->
              Best_hop.Cache.update_vector cache owner
                ~changes:(cost_changes t.config.metric delta.Wire.Delta.changes)
          | Some cache ->
              Best_hop.Cache.set_vector cache owner
                (Snapshot.cost_vector snapshot t.config.metric)
          | None -> ());
          match t.trace with
          | Some emit ->
              emit (Ev.Ls_ingest { node = ctx.self; owner; view = version; snapshot })
          | None -> ())
      | `Gap ->
          (* We lost the base this delta builds on: ask the owner for a
             full snapshot.  Both this request and the resent snapshot may
             be lost too; the next delta then re-detects the gap, so the
             exchange self-heals. *)
          (match t.trace with
          | Some emit ->
              emit
                (Ev.Ls_gap
                   { node = ctx.self; owner; view = version; epoch = delta.Wire.Delta.epoch })
          | None -> ());
          send_routed t ctx ~now owner (Message.Ls_resync { view = version; owner })
      | `Stale | `Malformed -> ())
  | Some _ | None -> ()

let handle_ls_resync t ~now ~src_port ~view:version ~owner =
  match t.ctx with
  | Some ctx when View.version ctx.view = version && owner = ctx.self -> (
      match View.rank_of_port ctx.view src_port with
      | None -> ()
      | Some requester -> (
          Hashtbl.remove ctx.last_sent requester;
          match ctx.last_announced with
          | Some snapshot ->
              announce_full t ctx ~now requester ~epoch:(ctx.announce_epoch - 1) snapshot
          | None -> ()))
  | Some _ | None -> ()

let handle_recommend t ~now ~src_port ~view:version entries =
  match t.ctx with
  | Some ctx when View.version ctx.view = version -> (
      match View.rank_of_port ctx.view src_port with
      | None -> ()
      | Some src_rank ->
          let m = View.size ctx.view in
          List.iter
            (fun (dst, hop) ->
              if dst >= 0 && dst < m && hop >= 0 && hop < m && dst <> ctx.self then begin
                ctx.routes.(dst) <- Some { hop; received_at = now; via_port = src_port };
                ctx.rec_last.(dst) <- now;
                Hashtbl.replace ctx.rec_pair (pair_key ctx src_rank dst) now;
                ctx.suspected_dead <- Nodeid.Set.remove dst ctx.suspected_dead;
                match t.trace with
                | Some emit ->
                    emit
                      (Ev.Rec_applied
                         {
                           node = ctx.self;
                           server = src_rank;
                           dst;
                           hop;
                           view = version;
                           local = false;
                         })
                | None -> ()
              end)
            entries)
  | Some _ | None -> ()

let handle_message t ~now ~src_port msg =
  match (msg : Message.t) with
  | Message.Link_state { view; epoch; snapshot } ->
      handle_link_state t ~now ~view ~epoch snapshot
  | Message.Link_state_delta { view; delta } -> handle_link_state_delta t ~now ~view delta
  | Message.Ls_resync { view; owner } -> handle_ls_resync t ~now ~src_port ~view ~owner
  | Message.Recommend { view; entries } -> handle_recommend t ~now ~src_port ~view entries
  | Message.Probe _ | Message.Probe_reply _ | Message.Join _ | Message.Leave _
  | Message.View _ | Message.Data _ | Message.Relay _ | Message.Dgram _
  | Message.Member _ ->
      ()

let on_peer_death t ~now ~port:_ =
  (* Proximal failure: run failover maintenance immediately rather than
     waiting for the next routing tick (Figure 6's timeline). *)
  match t.ctx with
  | Some ctx when t.started -> maintain t ctx ~now
  | Some _ | None -> ()

let on_peer_recovery t ~port =
  match t.ctx with
  | Some ctx -> (
      match View.rank_of_port ctx.view port with
      | Some rank -> ctx.suspected_dead <- Nodeid.Set.remove rank ctx.suspected_dead
      | None -> ())
  | None -> ()

(* --- queries ------------------------------------------------------------ *)

let best_hop_port t ~now ~dst_port =
  match t.ctx with
  | None -> None
  | Some ctx -> (
      match View.rank_of_port ctx.view dst_port with
      | None -> None
      | Some dst when dst = ctx.self -> Some dst_port
      | Some dst -> (
          let max_age = Config.staleness_s t.config in
          match ctx.routes.(dst) with
          (* Use the stored recommendation only while it is fresh and our
             own probes still consider its first link alive — we always
             have current link state for our own links (Section 4.2). *)
          | Some r
            when now -. r.received_at <= max_age
                 && Monitor.alive t.monitor (View.port_of_rank ctx.view r.hop) ->
              Some (View.port_of_rank ctx.view r.hop)
          | Some _ | None -> (
              (* Section 4.2 fallback: evaluate one-hops through the
                 neighbours whose tables we hold.  Our own costs come
                 straight from the monitor, quantized as our announced
                 snapshot quantizes them, so the choice is the snapshot's.
                 One pass with no per-datagram arrays: start from the
                 direct path and scan ranks downward, replacing only on a
                 strictly lower cost, so ties keep the direct path, then
                 the highest rank. *)
              let metric = t.config.metric in
              let own_cost rank =
                Metric.cost metric
                  (Entry.quantize
                     (Monitor.entry_for t.monitor (View.port_of_rank ctx.view rank)))
              in
              let best_hop = ref dst and best_cost = ref (own_cost dst) in
              for rank = View.size ctx.view - 1 downto 0 do
                if rank <> ctx.self && rank <> dst then begin
                  match Table.fresh_row ctx.table rank ~now ~max_age with
                  | Some row ->
                      let c = own_cost rank +. Snapshot.cost row metric dst in
                      if c < !best_cost then begin
                        best_hop := rank;
                        best_cost := c
                      end
                  | None -> ()
                end
              done;
              if Float.is_finite !best_cost then Some (View.port_of_rank ctx.view !best_hop)
              else if Monitor.alive t.monitor dst_port then Some dst_port
              else None)))

let route_info t ~dst_port =
  match t.ctx with
  | None -> None
  | Some ctx -> (
      match View.rank_of_port ctx.view dst_port with
      | None -> None
      | Some dst -> (
          match ctx.routes.(dst) with
          | Some r ->
              Some (View.port_of_rank ctx.view r.hop, r.received_at, r.via_port)
          | None -> None))

let freshness t ~now ~dst_port =
  match t.ctx with
  | None -> None
  | Some ctx -> (
      match View.rank_of_port ctx.view dst_port with
      | None -> None
      | Some dst ->
          if Float.is_finite ctx.rec_last.(dst) then Some (now -. ctx.rec_last.(dst))
          else None)

let double_rendezvous_failure_count t ~now =
  match t.ctx with
  | None -> 0
  | Some ctx ->
      if now -. ctx.created_at < warmup t then 0
      else begin
        let m = View.size ctx.view in
        let count = ref 0 in
        for dst = 0 to m - 1 do
          if dst <> ctx.self && pair_failed t ctx ~now dst then incr count
        done;
        !count
      end

let active_failover_count t =
  match t.ctx with None -> 0 | Some ctx -> Nodeid.Map.cardinal ctx.failover

let rendezvous_server_ports t =
  match t.ctx with
  | None -> []
  | Some ctx ->
      let failover_servers =
        Nodeid.Map.fold (fun _ e acc -> Nodeid.Set.add e.server acc) ctx.failover
          Nodeid.Set.empty
      in
      let all =
        List.fold_left
          (fun acc k -> Nodeid.Set.add k acc)
          failover_servers ctx.servers
      in
      Nodeid.Set.elements all |> List.map (View.port_of_rank ctx.view)

let suspects_dead t ~dst_port =
  match t.ctx with
  | None -> false
  | Some ctx -> (
      match View.rank_of_port ctx.view dst_port with
      | Some rank -> Nodeid.Set.mem rank ctx.suspected_dead
      | None -> false)
