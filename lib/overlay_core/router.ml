open Apor_util
open Apor_quorum
open Apor_linkstate
open Apor_core
module Ev = Apor_trace.Event

type effects = {
  send : dst_port:int -> Message.t -> unit;
  set_tick_timer : delay:float -> unit;
}

type failover_episode = {
  server : Nodeid.t;     (* rank of the failover rendezvous in use *)
  since : float;
  tried : Nodeid.Set.t;  (* ranks already tried this episode *)
}

(* Per destination [dst], the servers whose recommendations keep the pair
   (self, dst) connected, in CSR layout: [dst]'s slice is slots
   [offsets.(dst), offsets.(dst + 1)) of [servers].  They are the common
   rendezvous servers of the pair plus [dst] itself when it serves us
   (Grid.connecting without self), ~4m slots in all.  [rec_at] is parallel
   to [servers]: when that server last recommended [dst] to us,
   [neg_infinity] for never.  A pure function of the grid except for
   [rec_at], so built on first use in a view. *)
type slices = { offsets : int array; servers : Nodeid.t array; rec_at : float array }

(* All per-view routing state; rebuilt wholesale on membership change. *)
type ctx = {
  view : View.t;
  grid : Grid.t;
  self : Nodeid.t; (* own rank *)
  servers : Nodeid.t list; (* own default rendezvous servers, announced to every tick *)
  table : Table.t;
  (* The learned route to each destination rank, in parallel arrays: the
     hop's rank (-1 for none) and when it was recommended or computed. *)
  route_hop : Nodeid.t array;
  route_at : float array;
  rec_last : float array; (* last recommendation time per destination rank *)
  mutable slices : slices option;
  (* Recommendation times of the (server, dst) pairs outside the slices —
     failover servers, current and past — keyed server rank * m + dst
     rank. *)
  rec_overflow : (int, float) Hashtbl.t;
  mutable failover : failover_episode Nodeid.Map.t; (* per destination rank *)
  mutable suspected_dead : Nodeid.Set.t;
  created_at : float;
  (* Delta announcement state (all per-view, like everything else here).
     [announce_epoch] stamps the next announcement; [last_announced] is the
     snapshot of the previous one — the base receivers hold our deltas
     against — and [last_measured] the row measured then, which picks the
     next announcement's form; [last_sent] remembers, per rendezvous
     server, the last epoch we sent it, so we only delta-encode against a
     base the server has. *)
  mutable announce_epoch : int;
  mutable last_announced : Snapshot.t option;
  mutable last_measured : Snapshot.t option;
  last_sent : (Nodeid.t, int) Hashtbl.t;
  (* Incremental round-two state: pair winners over our table's own rows,
     repaired in O(changes) per ingested announcement. *)
  cache : Best_hop.Cache.t option;
  (* Delta recommendation state (with [delta_link_state] only): the
     batches of our last tick, each the base of its client's next delta;
     per server rank, the last batch we hold from it — the base we rebuild
     its deltas on. *)
  mutable rec_sent : Rec_batch.Sent.t option;
  rec_held : Rec_batch.t option array;
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
           validity does not depend on grid geometry; [route_at] keeps
           aging them out as usual).  Tables, the round-two cache,
           failover episodes and recommendation timestamps are
           deliberately dropped — their consumers (oracle mirrors,
           failover pacing) are keyed by view version and reset cleanly,
           and every row round two reads is stored anew in this view
           before its first use.  So are the recommendation batches sent
           and held ([rec_sent], [rec_held]), which is what that costs:
           the first batch of a view goes in full, so where views change
           faster than a few routing intervals, as with a joiner every
           3 s, nearly every batch is a first one, and delta
           recommendations save 3.8% of routing bytes (31.7% with a
           static view). *)
        let route_hop = Array.make m (-1) and route_at = Array.make m neg_infinity in
        (match t.ctx with
        | None -> ()
        | Some old ->
            let map = View.rank_map ~prev:old.view ~next:v in
            let inv = Array.make (View.size old.view) (-1) in
            Array.iteri
              (fun r o -> match o with Some o -> inv.(o) <- r | None -> ())
              map;
            Array.iteri
              (fun r o ->
                match o with
                | Some old_r ->
                    let hop = old.route_hop.(old_r) in
                    if hop >= 0 && inv.(hop) >= 0 then begin
                      route_hop.(r) <- inv.(hop);
                      route_at.(r) <- old.route_at.(old_r)
                    end
                | None -> ())
              map);
        t.ctx <-
          Some
            {
              view = v;
              grid;
              self;
              servers = Grid.rendezvous_servers grid self;
              table = Table.create ~n:m ~owner:self;
              route_hop;
              route_at;
              rec_last = Array.make m neg_infinity;
              slices = None;
              rec_overflow = Hashtbl.create 8;
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
              last_measured = None;
              last_sent = Hashtbl.create 8;
              cache =
                (if t.config.incremental_rendezvous && m >= 2 then
                   Some (Best_hop.Cache.create ~n:m ~metric:t.config.metric)
                 else None);
              rec_sent = None;
              rec_held = Array.make m None;
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

(* The connecting slices of this view, built on first use: a view that
   is replaced before it sees a recommendation or a maintenance pass —
   the common case while members join — never builds them. *)
let slices ctx =
  match ctx.slices with
  | Some sl -> sl
  | None ->
      let m = View.size ctx.view in
      let connecting =
        Array.init m (fun dst ->
            if dst = ctx.self then []
            else List.filter (fun k -> k <> ctx.self) (Grid.connecting ctx.grid ctx.self dst))
      in
      let offsets = Array.make (m + 1) 0 in
      Array.iteri
        (fun dst ks -> offsets.(dst + 1) <- offsets.(dst) + List.length ks)
        connecting;
      let servers = Array.make offsets.(m) 0 in
      Array.iteri
        (fun dst ks -> List.iteri (fun i k -> servers.(offsets.(dst) + i) <- k) ks)
        connecting;
      let sl = { offsets; servers; rec_at = Array.make offsets.(m) neg_infinity } in
      ctx.slices <- Some sl;
      sl

(* [k]'s slot in [dst]'s slice, or -1. *)
let slot (sl : slices) k dst =
  let stop = sl.offsets.(dst + 1) in
  let rec scan s = if s >= stop then -1 else if sl.servers.(s) = k then s else scan (s + 1) in
  scan sl.offsets.(dst)

let overflow_key ctx k dst = (k * View.size ctx.view) + dst

(* When [k] last recommended [dst] to us; [neg_infinity] for never. *)
let rec_time ctx k dst =
  let sl = slices ctx in
  let s = slot sl k dst in
  if s >= 0 then sl.rec_at.(s)
  else
    match Hashtbl.find_opt ctx.rec_overflow (overflow_key ctx k dst) with
    | Some time -> time
    | None -> neg_infinity

let record_rec ctx k dst ~now =
  let sl = slices ctx in
  let s = slot sl k dst in
  if s >= 0 then sl.rec_at.(s) <- now
  else Hashtbl.replace ctx.rec_overflow (overflow_key ctx k dst) now

let proximally_dead t ctx rank =
  rank <> ctx.self && not (Monitor.alive t.monitor (View.port_of_rank ctx.view rank))

(* The server in slot [s] of [dst]'s slice has failed with respect to
   [dst] if we cannot reach it (proximal) or it has stopped recommending
   routes to [dst] (remote, Section 4.1); one that never recommended
   counts from the view's start.  With footnote-8 relaying enabled a dead
   direct link no longer severs the exchange, so only recommendation
   silence counts. *)
let slot_failed t ctx (sl : slices) ~now s =
  ((not t.config.relay_link_state) && proximally_dead t ctx sl.servers.(s))
  ||
  let last = sl.rec_at.(s) in
  now -. (if last = neg_infinity then ctx.created_at else last) > remote_timeout t

(* Has the pair (self, dst) lost *every* connecting rendezvous?  Three ways
   a pair stays connected: a third-party common rendezvous still works; dst
   itself is one of our rendezvous servers and its recommendations still
   flow (both are slots of dst's slice); or dst is our client and we hold
   a fresh copy of its table (we compute locally).  Only when all fail is
   this the paper's "double rendezvous failure". *)
let pair_failed t ctx ~now dst =
  let sl = slices ctx in
  let stop = sl.offsets.(dst + 1) in
  let rec some_slot_ok s =
    s < stop && ((not (slot_failed t ctx sl ~now s)) || some_slot_ok (s + 1))
  in
  (not (some_slot_ok sl.offsets.(dst)))
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

(* Round one to one server: the tick's delta, when it has one, goes to a
   server holding the previous epoch; every other server gets the full
   form. *)
let announce_to t ctx ~now rank ~epoch ~delta snapshot =
  match delta with
  | Some d when Hashtbl.find_opt ctx.last_sent rank = Some (epoch - 1) ->
      Hashtbl.replace ctx.last_sent rank epoch;
      send_routed t ctx ~now rank
        (Message.Link_state_delta { view = View.version ctx.view; delta = d });
      emit_push t ctx rank
  | Some _ | None -> announce_full t ctx ~now rank ~epoch snapshot

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
              let delivered = now -. rec_time ctx episode.server dst <= remote_timeout t in
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
      let measured = make_snapshot t ctx in
      let epoch = ctx.announce_epoch in
      let metric = t.config.metric in
      (* One metric-aware diff per tick, of the measured row against the
         previous announced one, feeds every consumer.  Applied to that
         row, as a server applies the delta, it gives the new announced
         row; under [Latency] a change of the loss byte alone stays out,
         since nothing reads it.  That row is the only one used — our
         table row, the cache, the trace, every delta and every full
         snapshot — so announced content stays a function of the epoch.
         The cache has held our own row since the previous tick of this
         view exactly when [last_announced] is set. *)
      let snapshot, diffed =
        match (ctx.last_announced, ctx.last_measured) with
        | Some prev, Some last ->
            let changes, churn = Snapshot.diff_and_churn ~metric ~prev ~last ~next:measured in
            let d = { Wire.Delta.owner = ctx.self; epoch; changes } in
            (Wire.Delta.apply d prev, Some (d, churn))
        | _ -> (measured, None)
      in
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
      (match (ctx.cache, diffed) with
      | Some cache, Some (d, _) ->
          Best_hop.Cache.update_row cache snapshot ~changed:(List.map fst d.Wire.Delta.changes)
      | Some cache, None -> Best_hop.Cache.set_row cache snapshot
      | None, _ -> ());
      (* The form follows how far the measurement moved, not the delta's
         size: a tick that changed as many cells as a whole-cell delta
         could not carry more cheaply than the [3n]-byte snapshot goes out
         in full, loss-only changes included.  Such ticks come after
         churn or loss, and their full snapshots heal any server that
         missed an epoch without waiting for it to ask. *)
      let delta =
        match diffed with
        | Some (d, churn)
          when t.config.delta_link_state
               && Wire.Delta.header_bytes + (Wire.Delta.change_bytes * churn)
                  < Snapshot.payload_bytes snapshot ->
            Some d
        | Some _ | None -> None
      in
      ctx.last_announced <- Some snapshot;
      ctx.last_measured <- Some measured;
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
            (* Baseline: rescan all n candidates for every pair, every
               tick. *)
            let row rank = Option.get (Table.row ctx.table rank) in
            fun ~src ~dst -> Best_hop.best_rows metric ~src:(row src) ~dst:(row dst)
      in
      let clients = List.filter (fun rank -> rank <> ctx.self) fresh_ranks in
      (* Each client's batch covers every other fresh rank, ourselves
         included, so none is empty.  Under delta dissemination, a client
         sent a batch at our previous tick gets only the pairs that
         changed since, when that is the smaller form (after a
         churn-heavy interval it may not be); without it [rec_sent] stays
         [None] and every batch goes in full. *)
      let sent = Rec_batch.Sent.create ~epoch fresh_ranks in
      let view = View.version ctx.view in
      List.iter
        (fun i ->
          let delta =
            Rec_batch.Sent.record sent ~prev:ctx.rec_sent ~client:i (fun j ->
                (best_for ~src:i ~dst:j).Best_hop.hop)
          in
          let entries () = Option.get (Rec_batch.Sent.entries sent ~client:i) in
          send_routed t ctx ~now i
            (match delta with
            | Some (base, changed) -> Message.Recommend_delta { view; epoch; base; changed }
            | None -> Message.Recommend { view; epoch; entries = entries () });
          match t.trace with
          | Some emit ->
              emit (Ev.Rec_computed { server = ctx.self; client = i; view; entries = entries () })
          | None -> ())
        clients;
      if t.config.delta_link_state then ctx.rec_sent <- Some sent;
      (* Section 4.2: we hold our clients' tables, so compute routes to
         them locally (does not count as a received recommendation for the
         freshness metrics — only real round-two messages do). *)
      List.iter
        (fun j ->
          let choice = best_for ~src:ctx.self ~dst:j in
          if Float.is_finite choice.Best_hop.cost then begin
            ctx.route_hop.(j) <- choice.Best_hop.hop;
            ctx.route_at.(j) <- now;
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
   incremental cache (which holds it and answers round-two queries from
   its cells) and the trace, whose [Ls_ingest] the oracle mirrors.
   Emitting only on an actual store keeps the oracle's mirror equal to
   the table even when out-of-order packets are rejected. *)
let row_stored t ctx ~version owner snapshot =
  (match ctx.cache with
  | Some cache -> Best_hop.Cache.set_row cache snapshot
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
      match Table.apply_delta ctx.table delta ~now with
      | `Applied snapshot -> (
          (match ctx.cache with
          | Some cache ->
              Best_hop.Cache.update_row cache snapshot
                ~changed:(List.map fst delta.Wire.Delta.changes)
          | None -> ());
          (* The table mutates [snapshot] in place on the owner's next
             delta; the oracle's mirror keeps the event, so it gets a
             copy. *)
          match t.trace with
          | Some emit ->
              emit
                (Ev.Ls_ingest
                   { node = ctx.self; owner; view = version; snapshot = Snapshot.copy snapshot })
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

(* Apply a batch of recommendations from [server], given as an iterator
   over its (destination, hop) pairs. *)
let handle_recommend t ctx ~now ~server iter =
  let m = View.size ctx.view in
  iter (fun dst hop ->
      if dst >= 0 && dst < m && hop >= 0 && hop < m && dst <> ctx.self then begin
        ctx.route_hop.(dst) <- hop;
        ctx.route_at.(dst) <- now;
        ctx.rec_last.(dst) <- now;
        record_rec ctx server dst ~now;
        ctx.suspected_dead <- Nodeid.Set.remove dst ctx.suspected_dead;
        match t.trace with
        | Some emit ->
            emit
              (Ev.Rec_applied
                 {
                   node = ctx.self;
                   server;
                   dst;
                   hop;
                   view = View.version ctx.view;
                   local = false;
                 })
        | None -> ()
      end)

(* A full batch replaces the one held from its server unless it is older
   (a reordered packet); one that cannot be a delta's base is not held. *)
let hold_batch ctx server ~epoch entries =
  match ctx.rec_held.(server) with
  | Some held when Rec_batch.epoch held >= epoch -> ()
  | Some _ | None -> ctx.rec_held.(server) <- Rec_batch.of_entries ~epoch entries

let iter_pairs pairs f = List.iter (fun (dst, hop) -> f dst hop) pairs

(* The pairs a [Recommend] or [Recommend_delta] from [server] stands for,
   as an iterator: a full batch's own, a delta's rebuilt on the batch we
   hold from that server, or, when we lack its base, only its changed
   pairs. *)
let batch_of t ctx ~now ~server (msg : Message.t) =
  match msg with
  | Message.Recommend { epoch; entries; _ } ->
      if t.config.delta_link_state then hold_batch ctx server ~epoch entries;
      Some (iter_pairs entries)
  | Message.Recommend_delta { view; epoch; base; changed } -> (
      let held = ctx.rec_held.(server) in
      match Rec_batch.receive ~held ~epoch ~base changed with
      | `Applied batch ->
          (match held with
          | Some h when h == batch -> () (* rewritten in place *)
          | Some _ | None -> ctx.rec_held.(server) <- Some batch);
          Some (Rec_batch.iter batch)
      | `Gap ->
          (* We lost the batch this delta builds on: its changed pairs
             are still this tick's routes, so apply them, and ask the
             server for its whole batch.  A lost request or reply is
             re-detected by the next delta, as for link state. *)
          (match t.trace with
          | Some emit -> emit (Ev.Rec_gap { node = ctx.self; server; view; epoch })
          | None -> ());
          send_routed t ctx ~now server (Message.Rec_resync { view; server });
          Some (iter_pairs (List.filter (fun (_, hop) -> hop <> Rec_batch.dropped) changed))
      | `Stale | `Malformed -> None)
  | _ -> None

let receive_recommendation t ~now ~src_port ?(surface = fun _ _ -> ()) (msg : Message.t) =
  match (t.ctx, msg) with
  | Some ctx, (Message.Recommend { view; _ } | Message.Recommend_delta { view; _ })
    when View.version ctx.view = view -> (
      match View.rank_of_port ctx.view src_port with
      | Some server -> (
          match batch_of t ctx ~now ~server msg with
          | Some iter ->
              handle_recommend t ctx ~now ~server iter;
              iter surface
          | None -> ())
      | None -> ())
  | _ -> ()

(* A client lost our batch: resend the one we last sent it, in full and
   stamped with its own epoch, so our next delta builds on it. *)
let handle_rec_resync t ~now ~src_port ~view:version ~server =
  match t.ctx with
  | Some ctx when View.version ctx.view = version && server = ctx.self -> (
      match View.rank_of_port ctx.view src_port with
      | None -> ()
      | Some client -> (
          match ctx.rec_sent with
          | Some sent -> (
              match Rec_batch.Sent.entries sent ~client with
              | Some entries ->
                  send_routed t ctx ~now client
                    (Message.Recommend { view = version; epoch = Rec_batch.Sent.epoch sent; entries })
              | None -> ())
          | None -> ()))
  | Some _ | None -> ()

let handle_message t ~now ~src_port msg =
  match (msg : Message.t) with
  | Message.Link_state { view; epoch; snapshot } ->
      handle_link_state t ~now ~view ~epoch snapshot
  | Message.Link_state_delta { view; delta } -> handle_link_state_delta t ~now ~view delta
  | Message.Ls_resync { view; owner } -> handle_ls_resync t ~now ~src_port ~view ~owner
  | Message.Recommend _ | Message.Recommend_delta _ -> receive_recommendation t ~now ~src_port msg
  | Message.Rec_resync { view; server } -> handle_rec_resync t ~now ~src_port ~view ~server
  | Message.Probe _ | Message.Probe_reply _ | Message.Join _ | Message.Leave _
  | Message.View _ | Message.Relay _ | Message.Dgram _ | Message.Member _ ->
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
          let hop = ctx.route_hop.(dst) in
          (* Use the stored recommendation only while it is fresh and our
             own probes still consider its first link alive — we always
             have current link state for our own links (Section 4.2). *)
          if
            hop >= 0
            && now -. ctx.route_at.(dst) <= max_age
            && Monitor.alive t.monitor (View.port_of_rank ctx.view hop)
          then Some (View.port_of_rank ctx.view hop)
          else begin
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
              else None
          end))

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

type state_words = {
  table_words : int;
  cache_words : int;
  rendezvous_words : int;
  routes_words : int;
  batch_words : int;
}

let words x = Obj.reachable_words (Obj.repr x)

let state_words t =
  match t.ctx with
  | None ->
      { table_words = 0; cache_words = 0; rendezvous_words = 0; routes_words = 0; batch_words = 0 }
  | Some ctx ->
      let table_words = words ctx.table in
      {
        table_words;
        (* The cache holds the table's own rows: count only what it adds,
           less the pair's 3-word block. *)
        cache_words = words (ctx.table, ctx.cache) - 3 - table_words;
        rendezvous_words = words ctx.slices + words ctx.rec_overflow;
        routes_words = words ctx.route_hop + words ctx.route_at + words ctx.rec_last;
        batch_words = words ctx.rec_sent + words ctx.rec_held;
      }
