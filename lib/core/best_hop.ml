open Apor_util

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

(* --- incremental per-pair cache ----------------------------------------- *)

module Cache = struct
  (* [best] above is canonical: it returns the candidate minimizing
     (cost, order) where order is the scan position — the direct path
     first, then intermediaries by ascending id.  The incremental path
     below must reproduce that choice bit for bit (the trace Oracle
     recomputes [best] from mirrored tables and flags any disagreement),
     so every comparison carries the same tie-break: replace only on
     strictly lower cost, or equal cost at strictly earlier order. *)

  let scan = best

  type stats = {
    mutable hits : int;
    mutable misses : int;
    mutable updates : int;
    mutable rescans : int;
  }

  (* Each owner holding a vector has a dense slot; the winner of pair
     (src, dst) lives at index [slot src * cap + slot dst] of two flat
     [cap * cap] arrays, [hop] (-1: not cached) and unboxed [cost].  An
     owner's cached pairs are exactly its slot's row and column, so no
     dependency index is kept. *)
  type t = {
    n : int;
    vectors : float array option array;
    slot : int array; (* owner -> slot, -1 when it holds no vector *)
    mutable owner_of : int array; (* slot -> owner, -1 when free *)
    mutable cap : int;
    mutable hop : int array;
    mutable cost : float array;
    stats : stats;
  }

  (* A rendezvous server's vectors are its ~2 sqrt n clients plus itself,
     so that is the starting width; failover clients grow it. *)
  let initial_cap n = min n ((2 * int_of_float (Float.sqrt (float_of_int n))) + 2)

  let create ~n =
    if n < 2 then invalid_arg "Best_hop.Cache.create: n must be at least 2";
    let cap = initial_cap n in
    {
      n;
      vectors = Array.make n None;
      slot = Array.make n (-1);
      owner_of = Array.make cap (-1);
      cap;
      hop = Array.make (cap * cap) (-1);
      cost = Array.make (cap * cap) infinity;
      stats = { hits = 0; misses = 0; updates = 0; rescans = 0 };
    }

  let stats t = (t.stats.hits, t.stats.misses, t.stats.updates, t.stats.rescans)

  let vector t owner = t.vectors.(owner)

  let check_owner t owner =
    if owner < 0 || owner >= t.n then invalid_arg "Best_hop.Cache: owner out of range"

  (* Widen by half (capped at n, which always suffices) and copy the
     cached pairs to their new positions. *)
  let grow t =
    let cap = t.cap and cap' = min t.n (t.cap + max 1 (t.cap / 2)) in
    let hop = Array.make (cap' * cap') (-1) and cost = Array.make (cap' * cap') infinity in
    for s = 0 to cap - 1 do
      Array.blit t.hop (s * cap) hop (s * cap') cap;
      Array.blit t.cost (s * cap) cost (s * cap') cap
    done;
    let owner_of = Array.make cap' (-1) in
    Array.blit t.owner_of 0 owner_of 0 cap;
    t.cap <- cap';
    t.hop <- hop;
    t.cost <- cost;
    t.owner_of <- owner_of

  (* The lowest free slot, growing the arrays when every slot is taken. *)
  let assign_slot t owner =
    if t.slot.(owner) < 0 then begin
      let s = ref 0 in
      while !s < t.cap && t.owner_of.(!s) >= 0 do
        incr s
      done;
      if !s = t.cap then grow t;
      t.slot.(owner) <- !s;
      t.owner_of.(!s) <- owner
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

  let set_vector t owner v =
    check_owner t owner;
    if Array.length v <> t.n then
      invalid_arg "Best_hop.Cache.set_vector: vector length differs from n";
    t.vectors.(owner) <- Some v;
    assign_slot t owner;
    invalidate_pairs t owner

  let drop_vector t owner =
    check_owner t owner;
    t.vectors.(owner) <- None;
    invalidate_pairs t owner;
    let s = t.slot.(owner) in
    if s >= 0 then begin
      t.slot.(owner) <- -1;
      t.owner_of.(s) <- -1
    end

  let required_vector t owner =
    match t.vectors.(owner) with
    | Some v -> v
    | None -> invalid_arg "Best_hop.Cache: no vector stored for this node"

  let best t ~src ~dst =
    let from_src = required_vector t src and to_dst = required_vector t dst in
    let k = (t.slot.(src) * t.cap) + t.slot.(dst) in
    let hop = t.hop.(k) in
    if hop >= 0 then begin
      t.stats.hits <- t.stats.hits + 1;
      { hop; cost = t.cost.(k) }
    end
    else begin
      t.stats.misses <- t.stats.misses + 1;
      let choice = scan ~src ~dst ~cost_from_src:from_src ~cost_to_dst:to_dst in
      t.hop.(k) <- choice.hop;
      t.cost.(k) <- choice.cost;
      choice
    end

  (* Scan order of a candidate within the canonical scan: the direct path
     (hop = dst) comes before every intermediary. *)
  let order ~dst hop = if hop = dst then -1 else hop

  (* Repair cached pair [k] = (src, dst) against a batch of changed hop
     ids.  Runs once per dependent pair per ingested announcement — the
     inner loop of the incremental path — so it reads the incumbent
     straight from the flat arrays, scans a plain int array and folds
     with local refs instead of list closures. *)
  let update_pair t ~src ~dst k (changed : int array) =
    let from_src = required_vector t src and to_dst = required_vector t dst in
    let cand_cost h = if h = dst then from_src.(dst) else from_src.(h) +. to_dst.(h) in
    let hop = t.hop.(k) in
    let affected = ref false in
    for i = 0 to Array.length changed - 1 do
      if changed.(i) = hop then affected := true
    done;
    let affected = !affected in
    if affected && cand_cost hop > t.cost.(k) then begin
      (* The incumbent got worse: any of the n candidates may now win,
         so this pair pays the full scan. *)
      t.stats.rescans <- t.stats.rescans + 1;
      let choice = scan ~src ~dst ~cost_from_src:from_src ~cost_to_dst:to_dst in
      t.hop.(k) <- choice.hop;
      t.cost.(k) <- choice.cost
    end
    else begin
      t.stats.updates <- t.stats.updates + 1;
      let best_hop = ref hop in
      let best_cost = ref (if affected then cand_cost hop else t.cost.(k)) in
      for i = 0 to Array.length changed - 1 do
        let h = changed.(i) in
        if h <> src then begin
          let c = cand_cost h in
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

  (* Carry surviving vectors across a membership change.  [map.(r)] names
     the old id whose state new id [r] inherits (None for fresh joiners or
     nodes whose carried state the caller deems unusable).  Entries toward
     vanished nodes become [infinity] — the same cost a snapshot reports
     for an unreachable peer — and no cached pairs survive: pair winners
     may shift when candidates vanish, so they are recomputed on demand by
     the canonical scan, which keeps cached and scanned answers identical
     by construction. *)
  let remap t ~n ~map =
    if n < 2 then invalid_arg "Best_hop.Cache.remap: n must be at least 2";
    if Array.length map <> n then
      invalid_arg "Best_hop.Cache.remap: map length differs from n";
    let fresh = create ~n in
    for r = 0 to n - 1 do
      match map.(r) with
      | None -> ()
      | Some old ->
          if old < 0 || old >= t.n then
            invalid_arg "Best_hop.Cache.remap: mapped id out of range";
          (match t.vectors.(old) with
          | None -> ()
          | Some v ->
              let v' = Array.make n infinity in
              for j = 0 to n - 1 do
                match map.(j) with
                | Some oldj -> v'.(j) <- v.(oldj)
                | None -> ()
              done;
              fresh.vectors.(r) <- Some v';
              assign_slot fresh r)
    done;
    fresh

  let update_vector t owner ~changes =
    let v = required_vector t owner in
    List.iter
      (fun (id, cost) ->
        if id < 0 || id >= t.n then
          invalid_arg "Best_hop.Cache.update_vector: id out of range";
        v.(id) <- cost)
      changes;
    match changes with
    | [] -> ()
    | _ ->
        let changed = Array.of_list (List.map fst changes) in
        if Array.length changed > 8 && Array.length changed * 8 > t.n then
          (* A large slice of the row moved (steady-state measurement
             noise re-quantizing many entries at once).  Repairing every
             dependent pair against every changed hop costs more than the
             single canonical rescan the next query pays, and repeated
             invalidation is idempotent where repeated repair is not —
             so spill to invalidation.  Queries see identical results
             either way: a miss reruns the canonical scan. *)
          invalidate_pairs t owner
        else begin
          (* The owner's cached pairs: its row (owner as src) and its
             column (owner as dst); the diagonal is never cached. *)
          let s = t.slot.(owner) and cap = t.cap in
          for d = 0 to cap - 1 do
            let k = (s * cap) + d in
            if t.hop.(k) >= 0 then update_pair t ~src:owner ~dst:t.owner_of.(d) k changed
          done;
          for r = 0 to cap - 1 do
            let k = (r * cap) + s in
            if t.hop.(k) >= 0 then update_pair t ~src:t.owner_of.(r) ~dst:owner k changed
          done
        end
end
