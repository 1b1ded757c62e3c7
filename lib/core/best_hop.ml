open Apor_util
open Apor_linkstate

type choice = { hop : Nodeid.t; cost : float }

let direct ~dst ~cost = { hop = dst; cost }
let is_direct ~dst choice = choice.hop = dst

let check ~src ~dst ~cost_from_src ~cost_to_dst =
  let n = Array.length cost_from_src in
  if Array.length cost_to_dst <> n then
    invalid_arg "Best_hop: cost vector lengths differ";
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Best_hop: src or dst out of range";
  if src = dst then invalid_arg "Best_hop: src = dst"

(* Strictly-better comparison: ties keep the incumbent, and the direct path
   is installed first, so "prefer direct, then lowest hop id" falls out of
   the iteration order. *)
let best ~src ~dst ~cost_from_src ~cost_to_dst =
  check ~src ~dst ~cost_from_src ~cost_to_dst;
  let n = Array.length cost_from_src in
  let best = ref (direct ~dst ~cost:cost_from_src.(dst)) in
  for h = 0 to n - 1 do
    if h <> src && h <> dst then begin
      let c = cost_from_src.(h) +. cost_to_dst.(h) in
      if c < !best.cost then best := { hop = h; cost = c }
    end
  done;
  !best

let brute_force_cost m src dst =
  let choice =
    best ~src ~dst ~cost_from_src:(Costmat.row m src) ~cost_to_dst:(Costmat.column m dst)
  in
  choice.cost

(* --- the same scan over link-state rows ------------------------------- *)

(* Under [Latency] a cell's cost is its 16-bit latency, so the scan adds
   integers: a live sum is at most 2 * 65534, exact in a float, so every
   comparison, tie and returned cost equals the float scan's.  A dead leg
   (0xFFFF) is excluded inside the rare [c < best] branch, and [h = src]
   with it; [h = dst] adds [dst]'s own zero cell to the direct cost, which
   never beats it.  [best = max_int] stands for an unreachable [dst]. *)
let scan_latency ~src ~dst a b =
  let dead = Snapshot.dead_latency in
  let direct = Snapshot.unsafe_latency a dst in
  let best = ref (if direct = dead then max_int else direct) and hop = ref dst in
  for h = 0 to Snapshot.size a - 1 do
    let x = Snapshot.unsafe_latency a h and y = Snapshot.unsafe_latency b h in
    let c = x + y in
    if c < !best && x <> dead && y <> dead && h <> src then begin
      best := c;
      hop := h
    end
  done;
  { hop = !hop; cost = (if !best = max_int then infinity else float_of_int !best) }

let scan_float metric ~src ~dst a b =
  let best = ref (Snapshot.unsafe_cost a metric dst) and hop = ref dst in
  for h = 0 to Snapshot.size a - 1 do
    if h <> src && h <> dst then begin
      let c = Snapshot.unsafe_cost a metric h +. Snapshot.unsafe_cost b metric h in
      if c < !best then begin
        best := c;
        hop := h
      end
    end
  done;
  { hop = !hop; cost = !best }

(* Unchecked: both rows hold [n] cells and their owners differ. *)
let scan_rows (metric : Metric.t) a b =
  let src = Snapshot.owner a and dst = Snapshot.owner b in
  match metric with
  | Metric.Latency -> scan_latency ~src ~dst a b
  | Metric.Loss_sensitive _ -> scan_float metric ~src ~dst a b

let best_rows metric ~src ~dst =
  if Snapshot.size src <> Snapshot.size dst then invalid_arg "Best_hop: row sizes differ";
  if Snapshot.owner src = Snapshot.owner dst then invalid_arg "Best_hop: src = dst";
  scan_rows metric src dst

(* --- incremental per-pair cache ----------------------------------------- *)

module Cache = struct
  (* [best] above is canonical: it returns the candidate minimizing
     (cost, order) where order is the scan position — the direct path
     first, then intermediaries by ascending id.  The incremental path
     below must reproduce that choice bit for bit (the trace Oracle
     recomputes [best] from mirrored tables and flags any disagreement),
     so every comparison carries the same tie-break: replace only on
     strictly lower cost, or equal cost at strictly earlier order. *)

  type stats = {
    mutable hits : int;
    mutable misses : int;
    mutable updates : int;
    mutable rescans : int;
  }

  (* Each owner whose row is held has a dense slot; [rows] holds, per
     slot, the very snapshot the link-state table stores ([vacant] when
     the slot is free), and the winner of pair (src, dst) lives at index
     [slot src * cap + slot dst] of two flat [cap * cap] arrays, [hop]
     (-1: not cached) and unboxed [cost].  An owner's cached pairs are
     exactly its slot's row and column, so no dependency index is kept. *)
  type t = {
    n : int;
    metric : Metric.t;
    slot : int array; (* owner -> slot, -1 when no row is held *)
    mutable rows : Snapshot.t array; (* slot -> row *)
    mutable cap : int;
    mutable hop : int array;
    mutable cost : float array;
    stats : stats;
  }

  let vacant = Snapshot.create ~owner:0 [| Entry.self |]

  (* A rendezvous server's rows are its ~2 sqrt n clients plus itself,
     so that is the starting width; failover clients grow it. *)
  let initial_cap n = min n ((2 * int_of_float (Float.sqrt (float_of_int n))) + 2)

  let create ~n ~metric =
    if n < 2 then invalid_arg "Best_hop.Cache.create: n must be at least 2";
    let cap = initial_cap n in
    {
      n;
      metric;
      slot = Array.make n (-1);
      rows = Array.make cap vacant;
      cap;
      hop = Array.make (cap * cap) (-1);
      cost = Array.make (cap * cap) infinity;
      stats = { hits = 0; misses = 0; updates = 0; rescans = 0 };
    }

  let stats t = (t.stats.hits, t.stats.misses, t.stats.updates, t.stats.rescans)

  (* Widen by half (capped at n, which always suffices) and copy the
     cached pairs to their new positions. *)
  let grow t =
    let cap = t.cap and cap' = min t.n (t.cap + max 1 (t.cap / 2)) in
    let hop = Array.make (cap' * cap') (-1) and cost = Array.make (cap' * cap') infinity in
    for s = 0 to cap - 1 do
      Array.blit t.hop (s * cap) hop (s * cap') cap;
      Array.blit t.cost (s * cap) cost (s * cap') cap
    done;
    let rows = Array.make cap' vacant in
    Array.blit t.rows 0 rows 0 cap;
    t.cap <- cap';
    t.hop <- hop;
    t.cost <- cost;
    t.rows <- rows

  (* The lowest free slot, growing the arrays when every slot is taken. *)
  let assign_slot t owner =
    if t.slot.(owner) < 0 then begin
      let s = ref 0 in
      while !s < t.cap && t.rows.(!s) != vacant do
        incr s
      done;
      if !s = t.cap then grow t;
      t.slot.(owner) <- !s
    end

  (* Forget every cached pair that involves [owner]: its slot's row and
     column. *)
  let invalidate_pairs t owner =
    let s = t.slot.(owner) in
    if s >= 0 then
      for k = 0 to t.cap - 1 do
        t.hop.((s * t.cap) + k) <- -1;
        t.hop.((k * t.cap) + s) <- -1
      done

  let check_row t row =
    if Snapshot.size row <> t.n then invalid_arg "Best_hop.Cache: row size differs from n"

  let set_row t row =
    check_row t row;
    let owner = Snapshot.owner row in
    assign_slot t owner;
    t.rows.(t.slot.(owner)) <- row;
    invalidate_pairs t owner

  let drop_row t owner =
    if owner < 0 || owner >= t.n then invalid_arg "Best_hop.Cache: owner out of range";
    invalidate_pairs t owner;
    let s = t.slot.(owner) in
    if s >= 0 then begin
      t.slot.(owner) <- -1;
      t.rows.(s) <- vacant
    end

  let held t owner =
    let s = t.slot.(owner) in
    if s < 0 then invalid_arg "Best_hop.Cache: no row held for this node";
    s

  let best t ~src ~dst =
    let s = held t src and d = held t dst in
    if src = dst then invalid_arg "Best_hop: src = dst";
    let k = (s * t.cap) + d in
    let hop = t.hop.(k) in
    if hop >= 0 then begin
      t.stats.hits <- t.stats.hits + 1;
      { hop; cost = t.cost.(k) }
    end
    else begin
      t.stats.misses <- t.stats.misses + 1;
      let choice = scan_rows t.metric t.rows.(s) t.rows.(d) in
      t.hop.(k) <- choice.hop;
      t.cost.(k) <- choice.cost;
      choice
    end

  (* The cost of going from [a]'s owner to [dst] via [h] ([h = dst]: the
     direct path).  Inlined, so under [Latency] — the integer rule of
     [scan_latency], [dst]'s own cell being zero — no float is boxed. *)
  let[@inline] candidate_cost metric a b ~dst h =
    match (metric : Metric.t) with
    | Metric.Latency ->
        let x = Snapshot.unsafe_latency a h and y = Snapshot.unsafe_latency b h in
        if x = Snapshot.dead_latency || y = Snapshot.dead_latency then infinity
        else float_of_int (x + y)
    | Metric.Loss_sensitive _ ->
        if h = dst then Snapshot.unsafe_cost a metric dst
        else Snapshot.unsafe_cost a metric h +. Snapshot.unsafe_cost b metric h

  (* Scan order of a candidate within the canonical scan: the direct path
     (hop = dst) comes before every intermediary. *)
  let order ~dst hop = if hop = dst then -1 else hop

  (* Repair cached pair [k] = (owner of [a], owner of [b]) against a batch
     of changed hop ids.  Runs once per dependent pair per ingested
     announcement — the inner loop of the incremental path — so it reads
     the incumbent straight from the flat arrays, scans a plain int array
     and folds with local refs instead of list closures. *)
  let update_pair t a b k (changed : int array) =
    let src = Snapshot.owner a and dst = Snapshot.owner b and metric = t.metric in
    let hop = t.hop.(k) in
    let affected = ref false in
    for i = 0 to Array.length changed - 1 do
      if changed.(i) = hop then affected := true
    done;
    let affected = !affected in
    if affected && candidate_cost metric a b ~dst hop > t.cost.(k) then begin
      (* The incumbent got worse: any of the n candidates may now win,
         so this pair pays the full scan. *)
      t.stats.rescans <- t.stats.rescans + 1;
      let choice = scan_rows metric a b in
      t.hop.(k) <- choice.hop;
      t.cost.(k) <- choice.cost
    end
    else begin
      t.stats.updates <- t.stats.updates + 1;
      let best_hop = ref hop in
      let best_cost =
        ref (if affected then candidate_cost metric a b ~dst hop else t.cost.(k))
      in
      for i = 0 to Array.length changed - 1 do
        let h = changed.(i) in
        if h <> src then begin
          let c = candidate_cost metric a b ~dst h in
          if c < !best_cost || (c = !best_cost && order ~dst h < order ~dst !best_hop)
          then begin
            best_hop := h;
            best_cost := c
          end
        end
      done;
      t.hop.(k) <- !best_hop;
      t.cost.(k) <- !best_cost
    end

  let update_row t row ~changed =
    check_row t row;
    let s = held t (Snapshot.owner row) and cap = t.cap in
    List.iter
      (fun id -> if id < 0 || id >= t.n then invalid_arg "Best_hop.Cache: id out of range")
      changed;
    t.rows.(s) <- row;
    match changed with
    | [] -> ()
    | _ ->
        let changed = Array.of_list changed in
        if Array.length changed > 8 && Array.length changed * 8 > t.n then
          (* A large slice of the row moved (steady-state measurement
             noise re-quantizing many entries at once).  Repairing every
             dependent pair against every changed hop costs more than the
             single canonical rescan the next query pays, and repeated
             invalidation is idempotent where repeated repair is not —
             so spill to invalidation.  Queries see identical results
             either way: a miss reruns the canonical scan. *)
          invalidate_pairs t (Snapshot.owner row)
        else begin
          (* The owner's cached pairs: its row (owner as src) and its
             column (owner as dst); the diagonal is never cached. *)
          for d = 0 to cap - 1 do
            let k = (s * cap) + d in
            if t.hop.(k) >= 0 then update_pair t row t.rows.(d) k changed
          done;
          for r = 0 to cap - 1 do
            let k = (r * cap) + s in
            if t.hop.(k) >= 0 then update_pair t t.rows.(r) row k changed
          done
        end
end
