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

(* --- Best_hop.Cache -------------------------------------------------------- *)

(* Drive the incremental cache with a random sequence of vector installs
   and entry updates, and require every answer to equal the full scan over
   reference copies of the vectors — including the hop choice, i.e. the
   tie-breaks, not just the cost. *)
let cache_matches_scan_property =
  QCheck.Test.make ~name:"incremental cache = full rescan (random op sequences)"
    ~count:100
    QCheck.(pair (int_range 2 12) int)
    (fun (n, seed) ->
      let rng = Rng.make ~seed in
      let cache = Best_hop.Cache.create ~n in
      let reference = Array.init n (fun _ -> Array.make n infinity) in
      let random_cost () =
        if Rng.bernoulli rng ~p:0.2 then infinity else Float.round (Rng.float rng 999.)
      in
      let install owner =
        let v = Array.init n (fun j -> if j = owner then 0. else random_cost ()) in
        reference.(owner) <- Array.copy v;
        Best_hop.Cache.set_vector cache owner v
      in
      for owner = 0 to n - 1 do
        install owner
      done;
      let ok = ref true in
      let check_all () =
        for src = 0 to n - 1 do
          for dst = 0 to n - 1 do
            if src <> dst then begin
              let cached = Best_hop.Cache.best cache ~src ~dst in
              let scanned =
                Best_hop.best ~src ~dst ~cost_from_src:reference.(src)
                  ~cost_to_dst:reference.(dst)
              in
              if cached <> scanned then ok := false
            end
          done
        done
      in
      check_all ();
      for _step = 1 to 20 do
        let owner = Rng.int rng n in
        if Rng.bernoulli rng ~p:0.25 then install owner
        else begin
          (* entry-wise update, the delta-announcement path *)
          let changes =
            List.filter_map
              (fun j ->
                if j <> owner && Rng.bernoulli rng ~p:0.3 then Some (j, random_cost ())
                else None)
              (List.init n Fun.id)
          in
          List.iter (fun (j, c) -> reference.(owner).(j) <- c) changes;
          Best_hop.Cache.update_vector cache owner ~changes
        end;
        check_all ()
      done;
      (* the sequences above must actually exercise the incremental path *)
      let _, _, updates, _ = Best_hop.Cache.stats cache in
      !ok && (updates > 0 || n = 2))

(* The Hashtbl-backed cache the slot-indexed one replaced: winners keyed
   by [src * n + dst], plus per-node dependency sets naming the cached
   pairs each vector feeds.  Same answers, tie-breaks and stats. *)
module Reference = struct
  type t = {
    n : int;
    vectors : float array option array;
    pairs : (int, Best_hop.choice) Hashtbl.t;
    deps : (int, unit) Hashtbl.t array;
    mutable hits : int;
    mutable misses : int;
    mutable updates : int;
    mutable rescans : int;
  }

  let create ~n =
    {
      n;
      vectors = Array.make n None;
      pairs = Hashtbl.create 64;
      deps = Array.init n (fun _ -> Hashtbl.create 8);
      hits = 0;
      misses = 0;
      updates = 0;
      rescans = 0;
    }

  let stats t = (t.hits, t.misses, t.updates, t.rescans)

  let invalidate_pairs t owner =
    Hashtbl.iter (fun key () -> Hashtbl.remove t.pairs key) t.deps.(owner);
    Hashtbl.reset t.deps.(owner)

  let set_vector t owner v =
    t.vectors.(owner) <- Some v;
    invalidate_pairs t owner

  let drop_vector t owner =
    t.vectors.(owner) <- None;
    invalidate_pairs t owner

  let vector t owner = Option.get t.vectors.(owner)

  let best t ~src ~dst =
    let key = (src * t.n) + dst in
    match Hashtbl.find_opt t.pairs key with
    | Some choice ->
        t.hits <- t.hits + 1;
        choice
    | None ->
        t.misses <- t.misses + 1;
        let choice =
          Best_hop.best ~src ~dst ~cost_from_src:(vector t src) ~cost_to_dst:(vector t dst)
        in
        Hashtbl.replace t.pairs key choice;
        Hashtbl.replace t.deps.(src) key ();
        Hashtbl.replace t.deps.(dst) key ();
        choice

  let order ~dst hop = if hop = dst then -1 else hop

  let update_pair t ~src ~dst key (incumbent : Best_hop.choice) changed =
    let from_src = vector t src and to_dst = vector t dst in
    let cand_cost h = if h = dst then from_src.(dst) else from_src.(h) +. to_dst.(h) in
    let affected = List.mem incumbent.Best_hop.hop changed in
    if affected && cand_cost incumbent.Best_hop.hop > incumbent.Best_hop.cost then begin
      t.rescans <- t.rescans + 1;
      Hashtbl.replace t.pairs key
        (Best_hop.best ~src ~dst ~cost_from_src:from_src ~cost_to_dst:to_dst)
    end
    else begin
      t.updates <- t.updates + 1;
      let best =
        List.fold_left
          (fun (bh, bc) h ->
            if h = src then (bh, bc)
            else
              let c = cand_cost h in
              if c < bc || (c = bc && order ~dst h < order ~dst bh) then (h, c) else (bh, bc))
          ( incumbent.Best_hop.hop,
            if affected then cand_cost incumbent.Best_hop.hop else incumbent.Best_hop.cost )
          changed
      in
      Hashtbl.replace t.pairs key { Best_hop.hop = fst best; cost = snd best }
    end

  let update_vector t owner ~changes =
    let v = vector t owner in
    List.iter (fun (id, cost) -> v.(id) <- cost) changes;
    if changes <> [] then begin
      let changed = List.map fst changes in
      let count = List.length changed in
      if count > 8 && count * 8 > t.n then invalidate_pairs t owner
      else
        let deps = t.deps.(owner) in
        List.iter
          (fun key ->
            match Hashtbl.find_opt t.pairs key with
            | None -> Hashtbl.remove deps key
            | Some incumbent ->
                update_pair t ~src:(key / t.n) ~dst:(key mod t.n) key incumbent changed)
          (Hashtbl.fold (fun key () acc -> key :: acc) deps [])
    end

  let remap t ~n ~map =
    let fresh = create ~n in
    Array.iteri
      (fun r old ->
        match old with
        | Some old -> (
            match t.vectors.(old) with
            | Some v ->
                fresh.vectors.(r) <-
                  Some
                    (Array.init n (fun j ->
                         match map.(j) with Some oj -> v.(oj) | None -> infinity))
            | None -> ())
        | None -> ())
      map;
    fresh
end

(* Random op sequences over both caches, with more owners than the slot
   arrays start with so they grow mid-sequence: installs, small (repaired)
   and large (invalidating) update batches, drops, queries and remaps
   through random injective maps.  Every answer must equal the reference's
   and the canonical scan's — hop and cost — and the stats must agree. *)
let cache_matches_reference_property =
  QCheck.Test.make ~name:"slot cache = Hashtbl reference (grow, remap)" ~count:60
    QCheck.(pair (int_range 2 64) int)
    (fun (n, seed) ->
      let rng = Rng.make ~seed in
      let n = ref n in
      let cache = ref (Best_hop.Cache.create ~n:!n) in
      let refc = ref (Reference.create ~n:!n) in
      let ok = ref true in
      let random_cost () =
        if Rng.bernoulli rng ~p:0.2 then infinity else Float.round (Rng.float rng 99.)
      in
      let owners () =
        List.filter (fun o -> !refc.Reference.vectors.(o) <> None) (List.init !n Fun.id)
      in
      let install owner =
        let v = Array.init !n (fun j -> if j = owner then 0. else random_cost ()) in
        Best_hop.Cache.set_vector !cache owner v;
        Reference.set_vector !refc owner (Array.copy v)
      in
      let query src dst =
        let got = Best_hop.Cache.best !cache ~src ~dst in
        let want = Reference.best !refc ~src ~dst in
        let scanned =
          Best_hop.best ~src ~dst ~cost_from_src:(Reference.vector !refc src)
            ~cost_to_dst:(Reference.vector !refc dst)
        in
        if got <> want || got <> scanned then ok := false
      in
      let query_some () =
        match Array.of_list (owners ()) with
        | [||] | [| _ |] -> ()
        | os ->
            for _ = 1 to 40 do
              let src = os.(Rng.int rng (Array.length os))
              and dst = os.(Rng.int rng (Array.length os)) in
              if src <> dst then query src dst
            done
      in
      let update ~large owner =
        let count = if large then max 9 ((!n / 8) + 1) else 1 + Rng.int rng 4 in
        let changes = List.init count (fun _ -> (Rng.int rng !n, random_cost ())) in
        Best_hop.Cache.update_vector !cache owner ~changes;
        Reference.update_vector !refc owner ~changes
      in
      List.iter (fun o -> if Rng.bernoulli rng ~p:0.6 then install o) (List.init !n Fun.id);
      for _step = 1 to 40 do
        (match (Rng.int rng 10, owners ()) with
        | (0 | 1), _ | _, [] -> install (Rng.int rng !n)
        | (2 | 3 | 4), os -> update ~large:false (List.nth os (Rng.int rng (List.length os)))
        | 5, os -> update ~large:true (List.nth os (Rng.int rng (List.length os)))
        | 6, os ->
            let o = List.nth os (Rng.int rng (List.length os)) in
            Best_hop.Cache.drop_vector !cache o;
            Reference.drop_vector !refc o
        | 7, _ ->
            (* a membership change: a random injective map onto old ids *)
            let n' = 2 + Rng.int rng 63 in
            let olds = Array.init !n Fun.id in
            Rng.shuffle rng olds;
            let map =
              Array.init n' (fun r ->
                  if r < !n && Rng.bernoulli rng ~p:0.8 then Some olds.(r) else None)
            in
            cache := Best_hop.Cache.remap !cache ~n:n' ~map;
            refc := Reference.remap !refc ~n:n' ~map;
            n := n'
        | _ -> ());
        query_some ();
        if Best_hop.Cache.stats !cache <> Reference.stats !refc then ok := false
      done;
      let os = owners () in
      List.iter (fun src -> List.iter (fun dst -> if src <> dst then query src dst) os) os;
      List.iter
        (fun o -> if Best_hop.Cache.vector !cache o <> !refc.Reference.vectors.(o) then ok := false)
        (List.init !n Fun.id);
      !ok && Best_hop.Cache.stats !cache = Reference.stats !refc)

let test_cache_drop_vector () =
  let cache = Best_hop.Cache.create ~n:3 in
  Best_hop.Cache.set_vector cache 0 [| 0.; 10.; 30. |];
  Best_hop.Cache.set_vector cache 1 [| 10.; 0.; 10. |];
  Best_hop.Cache.set_vector cache 2 [| 30.; 10.; 0. |];
  let c = Best_hop.Cache.best cache ~src:0 ~dst:2 in
  check_int "via 1" 1 c.Best_hop.hop;
  Best_hop.Cache.drop_vector cache 2;
  check_bool "vector gone" true (Best_hop.Cache.vector cache 2 = None);
  Alcotest.check_raises "query after drop"
    (Invalid_argument "Best_hop.Cache: no vector stored for this node") (fun () ->
      ignore (Best_hop.Cache.best cache ~src:0 ~dst:2))

(* --- Rendezvous round-two ------------------------------------------------- *)

let snapshot_of_row ~owner ~n row =
  Snapshot.create ~owner
    (Array.init n (fun j ->
         if Float.is_finite row.(j) then Entry.make ~latency_ms:row.(j) ~loss:0. ~alive:true
         else Entry.unreachable))

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
          qcheck cache_matches_reference_property;
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
