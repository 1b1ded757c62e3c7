open Apor_util
open Apor_quorum
open Apor_linkstate
open Apor_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* Multi-hop sums group additions differently than the DP oracle, so costs
   can differ by float non-associativity; compare with relative tolerance. *)
let approx a b =
  Float.equal a b
  || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let check_approx msg a b =
  if not (approx a b) then Alcotest.failf "%s: %.12g vs %.12g" msg a b

(* Random symmetric cost matrix with some dead links. *)
let random_matrix ~rng ~n ~dead_fraction =
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let c =
        if Rng.bernoulli rng ~p:dead_fraction then infinity
        else 1. +. Rng.float rng 999.
      in
      m.(i).(j) <- c;
      m.(j).(i) <- c
    done
  done;
  Costmat.of_arrays m

(* --- Costmat -------------------------------------------------------------- *)

let test_costmat_create_and_get () =
  let m = Costmat.create ~n:3 ~f:(fun i j -> float_of_int ((10 * i) + j)) in
  check_float "diag" 0. (Costmat.get m 1 1);
  check_float "get" 12. (Costmat.get m 1 2)

let test_costmat_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Costmat: negative cost") (fun () ->
      ignore (Costmat.create ~n:2 ~f:(fun _ _ -> -1.)))

let test_costmat_rejects_nonzero_diagonal () =
  Alcotest.check_raises "diag" (Invalid_argument "Costmat.of_arrays: non-zero diagonal")
    (fun () -> ignore (Costmat.of_arrays [| [| 1.; 2. |]; [| 2.; 0. |] |]))

let test_costmat_symmetry () =
  let asym = Costmat.of_arrays [| [| 0.; 5. |]; [| 3.; 0. |] |] in
  check_bool "asymmetric" false (Costmat.is_symmetric asym);
  let sym = Costmat.symmetrize asym in
  check_bool "symmetrized" true (Costmat.is_symmetric sym);
  check_float "min kept" 3. (Costmat.get sym 0 1)

let test_costmat_row_col () =
  let m = Costmat.of_arrays [| [| 0.; 1.; 2. |]; [| 1.; 0.; 4. |]; [| 2.; 4.; 0. |] |] in
  Alcotest.(check (array (float 0.))) "row" [| 1.; 0.; 4. |] (Costmat.row m 1);
  Alcotest.(check (array (float 0.))) "col" [| 2.; 4.; 0. |] (Costmat.column m 2)

(* --- Best_hop -------------------------------------------------------------- *)

let test_best_hop_prefers_detour () =
  (* direct 0-2 costs 100; through 1 costs 2+3=5 *)
  let from_src = [| 0.; 2.; 100. |] in
  let to_dst = [| 100.; 3.; 0. |] in
  let c = Best_hop.best ~src:0 ~dst:2 ~cost_from_src:from_src ~cost_to_dst:to_dst in
  check_int "hop" 1 c.Best_hop.hop;
  check_float "cost" 5. c.Best_hop.cost

let test_best_hop_prefers_direct_on_tie () =
  let from_src = [| 0.; 2.; 5. |] in
  let to_dst = [| 5.; 3.; 0. |] in
  let c = Best_hop.best ~src:0 ~dst:2 ~cost_from_src:from_src ~cost_to_dst:to_dst in
  check_int "direct wins tie" 2 c.Best_hop.hop;
  check_float "cost" 5. c.Best_hop.cost

let test_best_hop_unreachable () =
  let inf = infinity in
  let c =
    Best_hop.best ~src:0 ~dst:1 ~cost_from_src:[| 0.; inf; inf |]
      ~cost_to_dst:[| inf; 0.; inf |]
  in
  check_bool "infinite" true (c.Best_hop.cost = infinity)

let test_best_hop_rejects_src_eq_dst () =
  Alcotest.check_raises "src=dst" (Invalid_argument "Best_hop: src = dst") (fun () ->
      ignore (Best_hop.best ~src:1 ~dst:1 ~cost_from_src:[| 0.; 0. |] ~cost_to_dst:[| 0.; 0. |]))

let best_hop_matches_brute_force =
  QCheck.Test.make ~name:"best hop = brute-force scan (random matrices)" ~count:100
    QCheck.(pair (int_range 2 30) int)
    (fun (n, seed) ->
      let rng = Rng.make ~seed in
      let m = random_matrix ~rng ~n ~dead_fraction:0.2 in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then begin
            let choice =
              Best_hop.best ~src ~dst ~cost_from_src:(Costmat.row m src)
                ~cost_to_dst:(Costmat.column m dst)
            in
            (* independent oracle: direct vs all intermediaries *)
            let best = ref (Costmat.get m src dst) in
            for h = 0 to n - 1 do
              if h <> src && h <> dst then
                best := Float.min !best (Costmat.get m src h +. Costmat.get m h dst)
            done;
            if not (Float.equal choice.Best_hop.cost !best) then ok := false
          end
        done
      done;
      !ok)

let snapshot_of_row ~owner ~n row =
  Snapshot.create ~owner
    (Array.init n (fun j ->
         if Float.is_finite row.(j) then Entry.make ~latency_ms:row.(j) ~loss:0. ~alive:true
         else Entry.unreachable))

(* --- Best_hop.Cache -------------------------------------------------------- *)

(* A random link-state entry drawn to provoke the kernel's edge cases:
   dead cells, the 65534 ms saturation on both legs (the largest live sum),
   and latencies from a tiny set so equal-cost ties against the direct
   path and between hops are common.  Loss matters only under
   [Loss_sensitive], where 254/254 makes a live link cost infinity. *)
let random_entry rng =
  if Rng.bernoulli rng ~p:0.2 then Entry.unreachable
  else
    let latency_ms =
      if Rng.bernoulli rng ~p:0.15 then float_of_int Entry.max_latency_ms
      else float_of_int (1 + Rng.int rng 4)
    in
    let loss = [| 0.; 0.; 0.1; 0.5; 1. |].(Rng.int rng 5) in
    Entry.make ~latency_ms ~loss ~alive:true

(* [Loss_sensitive] reads every field of a cell: a diff under it is the
   whole-cell diff. *)
let every_field = Metric.Loss_sensitive { retry_penalty_ms = 100. }

(* Drive the cache the way a rendezvous server's router does, through a
   real [Table]: full ingests ([set_row]), deltas applied by copy (the
   first on an ingested row) or in place (every later one) and notified
   by [update_row] with the changed ids (small batches repaired, large
   ones spilled), the server's own row replaced
   every "tick" and notified by diff, drops, and more owners than the
   initial slot width so the pair arrays grow mid-sequence.  Every answer
   must equal the float scan over [Snapshot.cost_vector] of the table's
   current rows — hop and cost, so tie-breaks included — under both
   metrics. *)
let cache_matches_scan_property =
  QCheck.Test.make ~name:"incremental cache = full rescan (random op sequences)"
    ~count:100
    QCheck.(triple (int_range 2 40) int bool)
    (fun (n, seed, latency) ->
      QCheck.assume (n >= 2) (* the shrinker leaves [int_range] *);
      let rng = Rng.make ~seed in
      let metric =
        if latency then Metric.Latency else Metric.Loss_sensitive { retry_penalty_ms = 100. }
      in
      let server = Rng.int rng n in
      let table = Table.create ~n ~owner:server in
      let cache = Best_hop.Cache.create ~n ~metric in
      let now = ref 0. and epoch = ref 0 in
      let clock () =
        now := !now +. 1.;
        incr epoch;
        !epoch
      in
      let random_row owner =
        Snapshot.create ~owner (Array.init n (fun _ -> random_entry rng))
      in
      let last_own = ref None in
      let own_tick () =
        let snap = random_row server in
        Table.set_own_row table snap ~epoch:(clock ()) ~now:!now;
        (match !last_own with
        | Some prev ->
            Best_hop.Cache.update_row cache snap
              ~changed:(List.map fst (Snapshot.diff ~metric:every_field ~prev ~next:snap))
        | None -> Best_hop.Cache.set_row cache snap);
        last_own := Some snap
      in
      let ingest owner =
        let snap = random_row owner in
        if Table.ingest table snap ~epoch:(clock ()) ~now:!now then
          Best_hop.Cache.set_row cache snap
      in
      let delta ~large owner =
        match Table.row_epoch table owner with
        | Some stored when owner <> server ->
            let count = if large then max 9 ((n / 8) + 1) else 1 + Rng.int rng 3 in
            let changes = List.init count (fun _ -> (Rng.int rng n, random_entry rng)) in
            ignore (clock ());
            let d = { Wire.Delta.owner; epoch = stored + 1; changes } in
            (match Table.apply_delta table d ~now:!now with
            | `Applied snap ->
                Best_hop.Cache.update_row cache snap ~changed:(List.map fst changes)
            | `Stale | `Gap | `Malformed -> QCheck.Test.fail_report "delta not applied")
        | Some _ | None -> ()
      in
      let check_all () =
        let owners = Table.known_rows table in
        let row i = Option.get (Table.row table i) in
        let vectors = Array.make n [||] in
        List.iter (fun i -> vectors.(i) <- Snapshot.cost_vector (row i) metric) owners;
        List.iter
          (fun src ->
            List.iter
              (fun dst ->
                if src <> dst then begin
                  let got = Best_hop.Cache.best cache ~src ~dst in
                  let want =
                    Best_hop.best ~src ~dst ~cost_from_src:vectors.(src)
                      ~cost_to_dst:vectors.(dst)
                  in
                  let rows = Best_hop.best_rows metric ~src:(row src) ~dst:(row dst) in
                  if got <> want || rows <> want then
                    QCheck.Test.fail_reportf "n=%d (%d,%d): cache %d/%g, rows %d/%g, scan %d/%g"
                      n src dst got.Best_hop.hop got.Best_hop.cost rows.Best_hop.hop
                      rows.Best_hop.cost want.Best_hop.hop want.Best_hop.cost
                end)
              owners)
          owners
      in
      own_tick ();
      for owner = 0 to n - 1 do
        if owner <> server then ingest owner
      done;
      check_all ();
      (* Every pair is now cached: the first two deltas must go through the
         incremental repair, by copy and in place. *)
      let client = (server + 1) mod n in
      delta ~large:false client;
      check_all ();
      delta ~large:false client;
      check_all ();
      for _step = 1 to 30 do
        let owner = Rng.int rng n in
        (match Rng.int rng 10 with
        | 0 | 1 -> own_tick ()
        | 2 -> if owner <> server then ingest owner
        | 3 | 4 | 5 -> delta ~large:false owner
        | 6 -> delta ~large:true owner
        | 7 when owner <> server ->
            Table.drop_row table owner;
            Best_hop.Cache.drop_row cache owner
        | _ -> ());
        check_all ()
      done;
      let _, _, updates, rescans = Best_hop.Cache.stats cache in
      updates + rescans > 0)

(* The cache contract is "say so for every cell its metric reads".  Rows
   change through a real [Table] — the server's own row replaced, client
   rows by deltas, by copy and then in place — in four kinds of step:
   a loss-only change of live cells, a latency change, a death and a
   revival.  The cache is told of the ids of every step except a
   loss-only one under [Latency], whose metric never reads the loss
   byte; it may then hold a snapshot whose loss bytes the table has
   since replaced.  After each step every answer must equal a fresh
   [Best_hop.best_rows] scan of the table's current rows, hop and cost.
   Under [Loss_sensitive] every change is told, as in the property
   above. *)
let cache_metric_visible_property =
  QCheck.Test.make ~name:"cache told what its metric reads = rescan" ~count:100
    QCheck.(triple (int_range 2 40) int bool)
    (fun (n, seed, latency) ->
      QCheck.assume (n >= 2);
      let rng = Rng.make ~seed in
      let metric = if latency then Metric.Latency else every_field in
      let server = Rng.int rng n in
      let table = Table.create ~n ~owner:server in
      let cache = Best_hop.Cache.create ~n ~metric in
      let now = ref 0. and epoch = ref 0 in
      let clock () =
        now := !now +. 1.;
        incr epoch;
        !epoch
      in
      Table.set_own_row table
        (Snapshot.create ~owner:server (Array.init n (fun _ -> random_entry rng)))
        ~epoch:(clock ()) ~now:!now;
      for owner = 0 to n - 1 do
        if owner <> server then
          ignore
            (Table.ingest table
               (Snapshot.create ~owner (Array.init n (fun _ -> random_entry rng)))
               ~epoch:(clock ()) ~now:!now
              : bool)
      done;
      for i = 0 to n - 1 do
        Best_hop.Cache.set_row cache (Option.get (Table.row table i))
      done;
      let pick_cells row pred =
        List.filter (fun j -> j <> Snapshot.owner row && pred j) (List.init n Fun.id)
        |> List.filter (fun _ -> Rng.bernoulli rng ~p:0.5)
      in
      (* One step on [owner]'s row: the changes and whether the cache
         hears of them. *)
      let step owner =
        let row = Option.get (Table.row table owner) in
        let alive j = Snapshot.reaches row j in
        let kind = Rng.int rng 4 in
        let changes =
          match kind with
          | 0 ->
              (* loss only: same latency, another loss byte *)
              List.map
                (fun j ->
                  let e = Snapshot.entry row j in
                  let byte l = Float.round (l *. 254.) in
                  let loss =
                    List.find (fun l -> byte l <> byte e.Entry.loss) [ 0.; 0.1; 0.5; 1. ]
                  in
                  (j, { e with Entry.loss }))
                (pick_cells row alive)
          | 1 ->
              List.map
                (fun j ->
                  let e = Snapshot.entry row j in
                  (j, { e with Entry.latency_ms = float_of_int (1 + Rng.int rng 4) }))
                (pick_cells row alive)
          | 2 -> List.map (fun j -> (j, Entry.unreachable)) (pick_cells row alive)
          | _ ->
              List.map (fun j -> (j, random_entry rng)) (pick_cells row (fun j -> not (alive j)))
        in
        let told = not (kind = 0 && latency) in
        let ids = List.map fst changes in
        if owner = server then begin
          let next = Snapshot.with_entries row changes in
          Table.set_own_row table next ~epoch:(clock ()) ~now:!now;
          if told then Best_hop.Cache.update_row cache next ~changed:ids
        end
        else begin
          let stored = Option.get (Table.row_epoch table owner) in
          ignore (clock ());
          let d = { Wire.Delta.owner; epoch = stored + 1; changes } in
          match Table.apply_delta table d ~now:!now with
          | `Applied snap -> if told then Best_hop.Cache.update_row cache snap ~changed:ids
          | `Stale | `Gap | `Malformed -> QCheck.Test.fail_report "delta not applied"
        end
      in
      let check_all () =
        let row i = Option.get (Table.row table i) in
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            if src <> dst then begin
              let got = Best_hop.Cache.best cache ~src ~dst in
              let want = Best_hop.best_rows metric ~src:(row src) ~dst:(row dst) in
              if got <> want then
                QCheck.Test.fail_reportf "n=%d (%d,%d): cache %d/%g, scan %d/%g" n src dst
                  got.Best_hop.hop got.Best_hop.cost want.Best_hop.hop want.Best_hop.cost
            end
          done
        done
      in
      check_all ();
      for _step = 1 to 30 do
        step (Rng.int rng n);
        check_all ()
      done;
      true)

let test_cache_drop_vector () =
  let row owner lat = snapshot_of_row ~owner ~n:3 lat in
  let cache = Best_hop.Cache.create ~n:3 ~metric:Metric.Latency in
  Best_hop.Cache.set_row cache (row 0 [| 0.; 10.; 30. |]);
  Best_hop.Cache.set_row cache (row 1 [| 10.; 0.; 10. |]);
  Best_hop.Cache.set_row cache (row 2 [| 30.; 10.; 0. |]);
  let c = Best_hop.Cache.best cache ~src:0 ~dst:2 in
  check_int "via 1" 1 c.Best_hop.hop;
  Best_hop.Cache.drop_row cache 2;
  Alcotest.check_raises "query after drop"
    (Invalid_argument "Best_hop.Cache: no row held for this node") (fun () ->
      ignore (Best_hop.Cache.best cache ~src:0 ~dst:2))

(* No second copy of a row: a cache holding a rendezvous server's
   2 isqrt n + 1 rows at n = 256, every pair cached, costs the slot
   index, the slot-to-row array and the two pair arrays —
   n + cap + 2 cap^2 words — beyond the rows themselves, which the
   table owns.  A float cost vector per row would add 33 * 256 words. *)
let test_cache_size () =
  let n = 256 in
  let rng = Rng.make ~seed:3 in
  let cap = (2 * 16) + 2 in
  let rows =
    List.init ((2 * 16) + 1) (fun owner ->
        Snapshot.create ~owner (Array.init n (fun _ -> random_entry rng)))
  in
  let cache = Best_hop.Cache.create ~n ~metric:Metric.Latency in
  List.iter (Best_hop.Cache.set_row cache) rows;
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let src = Snapshot.owner a and dst = Snapshot.owner b in
          if src <> dst then ignore (Best_hop.Cache.best cache ~src ~dst))
        rows)
    rows;
  let words x = Obj.reachable_words (Obj.repr x) in
  let row_words = List.fold_left (fun acc r -> acc + words r) 0 rows in
  let own_words = words cache - row_words in
  let bound = n + cap + (2 * cap * cap) + 32 in
  if own_words > bound then
    Alcotest.failf "cache holds %d words beyond its rows, bound %d" own_words bound

(* --- Rendezvous round-two ------------------------------------------------- *)

let test_rendezvous_recommendation_optimal () =
  let rng = Rng.make ~seed:99 in
  let n = 12 in
  let m = random_matrix ~rng ~n ~dead_fraction:0.1 in
  (* integral costs survive wire quantization exactly *)
  let m = Costmat.map m ~f:Float.round in
  let snap i = snapshot_of_row ~owner:i ~n (Costmat.row m i) in
  for src = 0 to 3 do
    for dst = 4 to 7 do
      let choice = Rendezvous.recommend_pair ~metric:Metric.Latency ~src:(snap src) ~dst:(snap dst) in
      check_float
        (Printf.sprintf "pair (%d,%d)" src dst)
        (Best_hop.brute_force_cost m src dst)
        choice.Best_hop.cost
    done
  done

let test_rendezvous_rejects_same_owner () =
  let s = snapshot_of_row ~owner:0 ~n:3 [| 0.; 1.; 2. |] in
  Alcotest.check_raises "same owner"
    (Invalid_argument "Rendezvous.recommend_pair: identical owners") (fun () ->
      ignore (Rendezvous.recommend_pair ~metric:Metric.Latency ~src:s ~dst:s))

let test_recommendations_for_covers_others () =
  let n = 6 in
  let rng = Rng.make ~seed:3 in
  let m = Costmat.map (random_matrix ~rng ~n ~dead_fraction:0.) ~f:Float.round in
  let snap i = snapshot_of_row ~owner:i ~n (Costmat.row m i) in
  let recs =
    Rendezvous.recommendations_for ~metric:Metric.Latency ~client:(snap 0)
      ~others:[ snap 1; snap 2; snap 3 ]
  in
  Alcotest.(check (list int)) "destinations" [ 1; 2; 3 ] (List.map fst recs)

(* --- Protocol (Theorem 1) -------------------------------------------------- *)

let protocol_finds_optimal_routes n seed =
  let rng = Rng.make ~seed in
  let m = random_matrix ~rng ~n ~dead_fraction:0.15 in
  let grid = Grid.build n in
  let { Protocol.routes; _ } = Protocol.run ~grid m in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let expected = Best_hop.brute_force_cost m i j in
        if not (Float.equal routes.(i).(j).Best_hop.cost expected) then ok := false
      end
    done
  done;
  !ok

let test_protocol_optimal_small () =
  List.iter
    (fun n -> check_bool (Printf.sprintf "n=%d" n) true (protocol_finds_optimal_routes n 7))
    [ 2; 3; 4; 5; 8; 9; 10 ]

let test_protocol_optimal_nonsquare () =
  List.iter
    (fun n -> check_bool (Printf.sprintf "n=%d" n) true (protocol_finds_optimal_routes n 21))
    [ 17; 18; 23; 40; 57 ]

let protocol_optimality_property =
  QCheck.Test.make ~name:"two-round protocol finds all optimal one-hops" ~count:30
    QCheck.(pair (int_range 2 60) int)
    (fun (n, seed) -> protocol_finds_optimal_routes n seed)

let test_protocol_message_bound () =
  List.iter
    (fun n ->
      let m = random_matrix ~rng:(Rng.make ~seed:1) ~n ~dead_fraction:0. in
      let { Protocol.stats; _ } = Protocol.run ~grid:(Grid.build n) m in
      let bound = Protocol.max_messages_bound ~n in
      Array.iteri
        (fun i sent ->
          if sent > bound then
            Alcotest.failf "node %d of n=%d sent %d > bound %d" i n sent bound)
        stats.Protocol.messages_sent)
    [ 4; 9; 16; 50; 100; 144; 200 ]

let test_protocol_bytes_scale () =
  (* Per-node traffic must scale ~n^1.5, not n^2: quadrupling n should
     multiply per-node bytes by ~8, not ~16. *)
  let bytes_for n =
    let m = random_matrix ~rng:(Rng.make ~seed:2) ~n ~dead_fraction:0. in
    let { Protocol.stats; _ } = Protocol.run ~grid:(Grid.build n) m in
    Stats.mean_array (Array.map float_of_int stats.Protocol.bytes_sent)
  in
  let b64 = bytes_for 64 and b256 = bytes_for 256 in
  let ratio = b256 /. b64 in
  check_bool (Printf.sprintf "ratio %.1f in [6,11]" ratio) true (ratio > 6. && ratio < 11.)

let test_protocol_conservation () =
  let n = 30 in
  let m = random_matrix ~rng:(Rng.make ~seed:3) ~n ~dead_fraction:0. in
  let { Protocol.stats; _ } = Protocol.run ~grid:(Grid.build n) m in
  let total a = Array.fold_left ( + ) 0 a in
  check_int "bytes conserved" (total stats.Protocol.bytes_sent) (total stats.Protocol.bytes_received)


(* --- Asymmetric costs (footnote 2) ------------------------------------------ *)

let random_asymmetric ~rng ~n ~dead_fraction =
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        m.(i).(j) <-
          (if Rng.bernoulli rng ~p:dead_fraction then infinity
           else 1. +. Rng.float rng 999.)
    done
  done;
  Costmat.of_arrays m

let test_protocol_asymmetric_optimal () =
  List.iter
    (fun n ->
      let m = random_asymmetric ~rng:(Rng.make ~seed:61) ~n ~dead_fraction:0.2 in
      let { Protocol.routes; _ } = Protocol.run ~symmetric:false ~grid:(Grid.build n) m in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then
            check_float
              (Printf.sprintf "(%d,%d)" i j)
              (Best_hop.brute_force_cost m i j)
              routes.(i).(j).Best_hop.cost
        done
      done)
    [ 5; 9; 18; 30 ]

let test_protocol_rejects_silent_asymmetry () =
  let m = Costmat.of_arrays [| [| 0.; 1. |]; [| 2.; 0. |] |] in
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Protocol.run: matrix is asymmetric; pass ~symmetric:false")
    (fun () -> ignore (Protocol.run ~grid:(Grid.build 2) m))

let test_protocol_asymmetric_costs_more_bytes () =
  let n = 36 in
  let sym = random_matrix ~rng:(Rng.make ~seed:5) ~n ~dead_fraction:0. in
  let asym = random_asymmetric ~rng:(Rng.make ~seed:5) ~n ~dead_fraction:0. in
  let grid = Grid.build n in
  let bytes r = Array.fold_left ( + ) 0 r.Protocol.stats.Protocol.bytes_sent in
  let b_sym = bytes (Protocol.run ~grid sym) in
  let b_asym = bytes (Protocol.run ~symmetric:false ~grid asym) in
  (* announcements grow from 3n to 5n payload bytes; recommendations are
     unchanged, so total grows but by less than 5/3 *)
  check_bool "asymmetric costs more" true (b_asym > b_sym);
  check_bool "but less than 5/3" true (float_of_int b_asym < 5. /. 3. *. float_of_int b_sym)

let asymmetric_protocol_property =
  QCheck.Test.make ~name:"asymmetric protocol finds optimal one-hops" ~count:20
    QCheck.(pair (int_range 2 40) int)
    (fun (n, seed) ->
      let m = random_asymmetric ~rng:(Rng.make ~seed) ~n ~dead_fraction:0.3 in
      let { Protocol.routes; _ } = Protocol.run ~symmetric:false ~grid:(Grid.build n) m in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j
             && not (Float.equal routes.(i).(j).Best_hop.cost (Best_hop.brute_force_cost m i j))
          then ok := false
        done
      done;
      !ok)


let test_protocol_with_cyclic_quorum () =
  List.iter
    (fun n ->
      let m = random_matrix ~rng:(Rng.make ~seed:67) ~n ~dead_fraction:0.15 in
      let system = Cyclic.system n in
      let { Protocol.routes; _ } = Protocol.run_with ~system m in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then
            check_float
              (Printf.sprintf "cyclic n=%d (%d,%d)" n i j)
              (Best_hop.brute_force_cost m i j)
              routes.(i).(j).Best_hop.cost
        done
      done)
    [ 2; 3; 7; 10; 20; 33 ]

let test_protocol_with_cyclic_asymmetric () =
  let n = 24 in
  let m = random_asymmetric ~rng:(Rng.make ~seed:71) ~n ~dead_fraction:0.25 in
  let { Protocol.routes; _ } = Protocol.run_with ~symmetric:false ~system:(Cyclic.system n) m in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        check_float
          (Printf.sprintf "(%d,%d)" i j)
          (Best_hop.brute_force_cost m i j)
          routes.(i).(j).Best_hop.cost
    done
  done

let cyclic_protocol_property =
  QCheck.Test.make ~name:"protocol over cyclic quorum finds optimal one-hops" ~count:20
    QCheck.(pair (int_range 2 50) int)
    (fun (n, seed) ->
      let m = random_matrix ~rng:(Rng.make ~seed) ~n ~dead_fraction:0.2 in
      let { Protocol.routes; _ } = Protocol.run_with ~system:(Cyclic.system n) m in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j
             && not (Float.equal routes.(i).(j).Best_hop.cost (Best_hop.brute_force_cost m i j))
          then ok := false
        done
      done;
      !ok)


(* --- Fullmesh baseline ------------------------------------------------------ *)

let test_fullmesh_matches_protocol () =
  let n = 25 in
  let m = random_matrix ~rng:(Rng.make ~seed:11) ~n ~dead_fraction:0.1 in
  let baseline = Fullmesh.one_hop_cost_matrix m in
  let { Protocol.routes; _ } = Protocol.run ~grid:(Grid.build n) m in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        check_float
          (Printf.sprintf "(%d,%d)" i j)
          baseline.(i).(j) routes.(i).(j).Best_hop.cost
    done
  done

let test_dijkstra_simple_chain () =
  (* 0-1-2 chain with expensive direct 0-2 *)
  let m = Costmat.of_arrays [| [| 0.; 1.; 10. |]; [| 1.; 0.; 1. |]; [| 10.; 1.; 0. |] |] in
  let dist, prev = Fullmesh.dijkstra m ~src:0 in
  check_float "dist 2" 2. dist.(2);
  Alcotest.(check (option int)) "prev 2" (Some 1) prev.(2)

let test_limited_shortest_tightens () =
  (* path of 3 cheap edges vs direct expensive edge *)
  let inf = infinity in
  let m =
    Costmat.of_arrays
      [|
        [| 0.; 1.; inf; 30. |];
        [| 1.; 0.; 1.; inf |];
        [| inf; 1.; 0.; 1. |];
        [| 30.; inf; 1.; 0. |];
      |]
  in
  let d1 = Fullmesh.limited_shortest m ~max_edges:1 in
  let d2 = Fullmesh.limited_shortest m ~max_edges:2 in
  let d3 = Fullmesh.limited_shortest m ~max_edges:3 in
  check_float "1 edge" 30. d1.(0).(3);
  check_float "2 edges" 30. d2.(0).(3);
  check_float "3 edges" 3. d3.(0).(3)

let test_all_pairs_matches_limited () =
  let n = 15 in
  let m = random_matrix ~rng:(Rng.make ~seed:31) ~n ~dead_fraction:0.3 in
  let exact = Fullmesh.all_pairs_shortest m in
  let dp = Fullmesh.limited_shortest m ~max_edges:(n - 1) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      check_float (Printf.sprintf "(%d,%d)" i j) exact.(i).(j) dp.(i).(j)
    done
  done

(* --- Multihop ---------------------------------------------------------------- *)

let test_multihop_matches_length_limited_dp () =
  let n = 20 in
  let m = random_matrix ~rng:(Rng.make ~seed:41) ~n ~dead_fraction:0.4 in
  let grid = Grid.build n in
  List.iter
    (fun iters ->
      let tables, _ = Multihop.run ~iterations:iters ~grid m in
      let oracle = Fullmesh.limited_shortest m ~max_edges:(1 lsl iters) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then
            check_approx
              (Printf.sprintf "iters=%d (%d,%d)" iters i j)
              oracle.(i).(j)
              (Multihop.cost tables ~src:i ~dst:j)
        done
      done)
    [ 1; 2; 3 ]

let test_multihop_converges_to_shortest_paths () =
  let n = 18 in
  let m = random_matrix ~rng:(Rng.make ~seed:43) ~n ~dead_fraction:0.5 in
  let tables, stats = Multihop.run ~grid:(Grid.build n) m in
  let exact = Fullmesh.all_pairs_shortest m in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        check_approx (Printf.sprintf "(%d,%d)" i j) exact.(i).(j)
          (Multihop.cost tables ~src:i ~dst:j)
    done
  done;
  check_bool "log iterations" true (stats.Multihop.iterations <= 6)

let test_multihop_paths_are_real () =
  let n = 16 in
  let m = random_matrix ~rng:(Rng.make ~seed:47) ~n ~dead_fraction:0.45 in
  let tables, _ = Multihop.run ~grid:(Grid.build n) m in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        match Multihop.path tables ~src:i ~dst:j with
        | None -> check_bool "unreachable iff infinite" true (Multihop.cost tables ~src:i ~dst:j = infinity)
        | Some path ->
            (* endpoints correct, edges exist, total cost matches the table *)
            check_int "starts at src" i (List.hd path);
            check_int "ends at dst" j (List.nth path (List.length path - 1));
            let rec walk acc = function
              | a :: (b :: _ as rest) ->
                  let c = Costmat.get m a b in
                  check_bool "edge exists" true (Float.is_finite c);
                  walk (acc +. c) rest
              | _ -> acc
            in
            let total = walk 0. path in
            check_approx "path cost matches table" (Multihop.cost tables ~src:i ~dst:j) total
      end
    done
  done

let test_multihop_rejects_asymmetric () =
  let m = Costmat.of_arrays [| [| 0.; 1. |]; [| 2.; 0. |] |] in
  Alcotest.check_raises "asymmetric"
    (Invalid_argument "Multihop.run: asymmetric matrix (paper assumes symmetric costs)")
    (fun () -> ignore (Multihop.run ~grid:(Grid.build 2) m))

let test_multihop_first_hop_consistency () =
  let n = 12 in
  let m = random_matrix ~rng:(Rng.make ~seed:53) ~n ~dead_fraction:0.2 in
  let tables, _ = Multihop.run ~grid:(Grid.build n) m in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        match (Multihop.first_hop tables ~src:i ~dst:j, Multihop.path tables ~src:i ~dst:j) with
        | Some hop, Some (_ :: second :: _) -> check_int "Sec = second node" hop second
        | None, None -> ()
        | Some hop, Some ([] | [ _ ]) -> Alcotest.failf "hop %d but trivial path" hop
        | Some _, None | None, Some _ -> Alcotest.fail "first_hop/path disagree"
      end
    done
  done

let multihop_property =
  QCheck.Test.make ~name:"multihop equals DP oracle (random)" ~count:20
    QCheck.(triple (int_range 4 24) (int_range 1 3) int)
    (fun (n, iters, seed) ->
      let m = random_matrix ~rng:(Rng.make ~seed) ~n ~dead_fraction:0.35 in
      let tables, _ = Multihop.run ~iterations:iters ~grid:(Grid.build n) m in
      let oracle = Fullmesh.limited_shortest m ~max_edges:(1 lsl iters) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && not (approx oracle.(i).(j) (Multihop.cost tables ~src:i ~dst:j))
          then ok := false
        done
      done;
      !ok)

(* --- Diamonds (Appendix A) ---------------------------------------------------- *)

let complete_edges n =
  let acc = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      acc := (a, b) :: !acc
    done
  done;
  !acc

let test_lemma2_exact () =
  (* Lemma 2: the complete graph has 3 * C(n,4) diamonds; verify by
     exhaustive counting. *)
  List.iter
    (fun n ->
      check_int
        (Printf.sprintf "n=%d" n)
        (Diamonds.diamonds_in_complete n)
        (Diamonds.count ~n ~edges:(complete_edges n)))
    [ 4; 5; 6; 7; 8 ]

let test_single_square () =
  check_int "4-cycle" 1 (Diamonds.count ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]);
  check_int "path no diamond" 0 (Diamonds.count ~n:4 ~edges:[ (0, 1); (1, 2); (2, 3) ])

let test_three_diamonds_on_k4 () =
  check_int "K4" 3 (Diamonds.count ~n:4 ~edges:(complete_edges 4))

let lemma3_property =
  QCheck.Test.make ~name:"Lemma 3: e edges form at most e^2 diamonds" ~count:100
    QCheck.(pair (int_range 4 12) int)
    (fun (n, seed) ->
      let rng = Rng.make ~seed in
      let edges =
        List.filter (fun _ -> Rng.bernoulli rng ~p:0.5) (complete_edges n)
      in
      Diamonds.count ~n ~edges <= Diamonds.lemma3_bound (List.length edges))

let test_lower_bound_growth () =
  (* Theorem 4: the per-node edge requirement grows like n * sqrt n. *)
  let b n = Diamonds.lower_bound_edges_per_node n in
  let ratio = b 64 /. b 16 in
  (* (64/16)^1.5 = 8 asymptotically; finite-n correction pushes it to ~9.3 *)
  check_bool (Printf.sprintf "ratio %.2f ~ 8" ratio) true (ratio > 7. && ratio < 10.)

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "apor_core"
    [
      ( "costmat",
        [
          Alcotest.test_case "create/get" `Quick test_costmat_create_and_get;
          Alcotest.test_case "rejects negative" `Quick test_costmat_rejects_negative;
          Alcotest.test_case "rejects bad diagonal" `Quick test_costmat_rejects_nonzero_diagonal;
          Alcotest.test_case "symmetry" `Quick test_costmat_symmetry;
          Alcotest.test_case "row/col" `Quick test_costmat_row_col;
        ] );
      ( "best_hop",
        [
          Alcotest.test_case "prefers detour" `Quick test_best_hop_prefers_detour;
          Alcotest.test_case "direct wins ties" `Quick test_best_hop_prefers_direct_on_tie;
          Alcotest.test_case "unreachable" `Quick test_best_hop_unreachable;
          Alcotest.test_case "rejects src=dst" `Quick test_best_hop_rejects_src_eq_dst;
          qcheck best_hop_matches_brute_force;
        ] );
      ( "best_hop_cache",
        [
          Alcotest.test_case "drop vector" `Quick test_cache_drop_vector;
          qcheck cache_matches_scan_property;
          qcheck cache_metric_visible_property;
          Alcotest.test_case "no second copy of a row (n=256)" `Quick test_cache_size;
        ] );
      ( "rendezvous",
        [
          Alcotest.test_case "recommendation optimal" `Quick test_rendezvous_recommendation_optimal;
          Alcotest.test_case "rejects same owner" `Quick test_rendezvous_rejects_same_owner;
          Alcotest.test_case "covers all clients" `Quick test_recommendations_for_covers_others;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "optimal, small n" `Quick test_protocol_optimal_small;
          Alcotest.test_case "optimal, non-square n" `Quick test_protocol_optimal_nonsquare;
          Alcotest.test_case "message bound (Thm 1)" `Quick test_protocol_message_bound;
          Alcotest.test_case "bytes scale as n^1.5" `Slow test_protocol_bytes_scale;
          Alcotest.test_case "byte conservation" `Quick test_protocol_conservation;
          Alcotest.test_case "asymmetric optimal (footnote 2)" `Quick test_protocol_asymmetric_optimal;
          Alcotest.test_case "rejects silent asymmetry" `Quick test_protocol_rejects_silent_asymmetry;
          Alcotest.test_case "asymmetric byte accounting" `Quick test_protocol_asymmetric_costs_more_bytes;
          Alcotest.test_case "cyclic quorum optimal" `Quick test_protocol_with_cyclic_quorum;
          Alcotest.test_case "cyclic + asymmetric" `Quick test_protocol_with_cyclic_asymmetric;
          qcheck protocol_optimality_property;
          qcheck asymmetric_protocol_property;
          qcheck cyclic_protocol_property;
        ] );
      ( "fullmesh",
        [
          Alcotest.test_case "matches protocol routes" `Quick test_fullmesh_matches_protocol;
          Alcotest.test_case "dijkstra chain" `Quick test_dijkstra_simple_chain;
          Alcotest.test_case "limited DP tightens" `Quick test_limited_shortest_tightens;
          Alcotest.test_case "all-pairs = full DP" `Quick test_all_pairs_matches_limited;
        ] );
      ( "multihop",
        [
          Alcotest.test_case "matches length-limited DP" `Quick test_multihop_matches_length_limited_dp;
          Alcotest.test_case "converges to shortest paths" `Quick test_multihop_converges_to_shortest_paths;
          Alcotest.test_case "paths are real" `Quick test_multihop_paths_are_real;
          Alcotest.test_case "rejects asymmetric" `Quick test_multihop_rejects_asymmetric;
          Alcotest.test_case "Sec pointer = second node" `Quick test_multihop_first_hop_consistency;
          qcheck multihop_property;
        ] );
      ( "diamonds",
        [
          Alcotest.test_case "Lemma 2 exact" `Quick test_lemma2_exact;
          Alcotest.test_case "single square" `Quick test_single_square;
          Alcotest.test_case "K4 has 3" `Quick test_three_diamonds_on_k4;
          Alcotest.test_case "lower bound growth" `Quick test_lower_bound_growth;
          qcheck lemma3_property;
        ] );
    ]
