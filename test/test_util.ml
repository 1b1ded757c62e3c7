open Apor_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- Heap ---------------------------------------------------------------- *)

(* The heap checks run on two heaps: a fresh one, and one that has grown
   past its first capacity and been drained, so its arrays hold stale keys
   and sequence numbers and its sequence counter does not start at 0.  The
   second run keeps the group name "calqueue" its checks had when they ran
   on the calendar queue the engine used before Heap, so results compare
   across versions.  [make filler] returns the heap; [filler] is any value
   of the element type, used for the pushes that are drained again. *)
type maker = { make : 'a. 'a -> 'a Heap.t }

let fresh = { make = (fun _ -> Heap.create ()) }

let reused =
  let make filler =
    let h = Heap.create () in
    for i = 0 to 39 do
      Heap.push h ~key:(float_of_int (i * 7 mod 40)) filler
    done;
    let rec drain () = match Heap.pop h with None -> () | Some _ -> drain () in
    drain ();
    h
  in
  { make }

let test_heap_orders_by_key m () =
  let h = m.make 0 in
  List.iter (fun k -> Heap.push h ~key:k (int_of_float k)) [ 5.; 1.; 3.; 2.; 4. ];
  let order = List.init 5 (fun _ -> Heap.pop h |> Option.get |> snd) in
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 4; 5 ] order

let test_heap_fifo_on_ties m () =
  let h = m.make "" in
  List.iter (fun v -> Heap.push h ~key:7. v) [ "a"; "b"; "c" ];
  Heap.push h ~key:3. "first";
  let order = List.init 4 (fun _ -> Heap.pop h |> Option.get |> snd) in
  Alcotest.(check (list string)) "fifo ties" [ "first"; "a"; "b"; "c" ] order

let test_heap_empty m () =
  let h = m.make 0 in
  check_bool "empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair (float 0.) int))) "pop none" None (Heap.pop h);
  Heap.push h ~key:1. 1;
  check_int "length" 1 (Heap.length h);
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h)

let test_heap_rejects_nan m () =
  Alcotest.check_raises "nan" (Invalid_argument "Heap.push: NaN key") (fun () ->
      Heap.push (m.make ()) ~key:Float.nan ())

let test_heap_peek_does_not_remove m () =
  let h = m.make "" in
  Heap.push h ~key:2. "x";
  Alcotest.(check (option (pair (float 0.) string))) "peek" (Some (2., "x")) (Heap.peek h);
  check_int "still there" 1 (Heap.length h)

let heap_sorts_random =
  QCheck.Test.make ~name:"heap sorts arbitrary float lists" ~count:200
    QCheck.(list (float_bound_exclusive 1e6))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h ~key:k k) keys;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort Float.compare keys)

(* Regression: a popped element must become collectable once the caller
   drops it.  The pre-fix [pop] left [data.(size)] pointing at the swapped
   element, pinning one arbitrary value per pop for the queue's lifetime. *)
let test_heap_releases_popped m () =
  let h = m.make (ref 0) in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let v = ref (i + 100) in
    Weak.set w i (Some v);
    Heap.push h ~key:(float_of_int i) v
  done;
  for _ = 0 to 7 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  for i = 0 to 7 do
    check_bool (Printf.sprintf "popped value %d collected" i) false (Weak.check w i)
  done;
  (* keep the queue itself alive past the final check *)
  check_bool "queue empty" true (Heap.is_empty h)

(* The order the engine's determinism rests on: for arbitrary push/pop
   interleavings the heap pops exactly a stable sort by key of what is
   pending, i.e. (key, push order).  Values are distinct tags, so any
   tie-break divergence shows up as a value mismatch. *)
let heap_pops_stable_sort =
  QCheck.Test.make ~name:"heap pops a stable sort of interleaved pushes" ~count:300
    QCheck.(list (pair bool (int_bound 60)))
    (fun ops ->
      let h = Heap.create () in
      let pending = ref [] (* (key, tag), newest first *) and tag = ref 0 in
      let expected_pop () =
        match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev !pending) with
        | [] -> None
        | ((_, first) as top) :: _ ->
            pending := List.filter (fun (_, t) -> t <> first) !pending;
            Some top
      in
      let step (is_pop, raw) =
        if is_pop then Heap.pop h = expected_pop ()
        else begin
          (* /4 makes tie clusters; every 7th key lands up to 6e9, so keys
             span more than eight orders of magnitude. *)
          let key =
            if raw mod 7 = 0 then float_of_int raw *. 1e8 else float_of_int raw /. 4.
          in
          incr tag;
          Heap.push h ~key !tag;
          pending := (key, !tag) :: !pending;
          true
        end
      in
      List.for_all step ops
      &&
      let rec drain () =
        match (Heap.pop h, expected_pop ()) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      drain ())

(* Keys spanning nine orders of magnitude, with ties; order must be exactly
   (key, insertion order). *)
let test_heap_wide_key_range m () =
  let keys =
    List.init 500 (fun i ->
        let i = float_of_int i in
        if int_of_float i mod 7 = 0 then i *. 1e7 else Float.rem (i *. 13.) 97.)
  in
  let h = m.make (0, 0.) in
  List.iteri (fun i k -> Heap.push h ~key:k (i, k)) keys;
  let rec drain acc = function
    | 0 -> List.rev acc
    | m -> drain ((Heap.pop h |> Option.get) :: acc) (m - 1)
  in
  let popped = drain [] (List.length keys) in
  check_bool "drained" true (Heap.is_empty h);
  let expected =
    List.mapi (fun i k -> (k, (i, k))) keys
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  in
  check_bool "key+fifo order" true (popped = expected)

(* A drained, reused heap pops the same (key, tag) sequence as a fresh one
   over arbitrary push/pop interleavings. *)
let reused_matches_fresh =
  QCheck.Test.make ~name:"calqueue matches reference heap on interleavings" ~count:300
    QCheck.(list (pair bool (int_bound 60)))
    (fun ops ->
      let r = reused.make 0 and f = Heap.create () in
      let step tag (is_pop, raw) =
        if is_pop then Heap.pop r = Heap.pop f
        else begin
          let key = if raw mod 7 = 0 then float_of_int raw *. 1e8 else float_of_int raw /. 4. in
          Heap.push r ~key tag;
          Heap.push f ~key tag;
          true
        end
      in
      List.for_all Fun.id (List.mapi step ops)
      &&
      let rec drain () =
        match (Heap.pop r, Heap.pop f) with None, None -> true | a, b -> a = b && drain ()
      in
      drain ())

(* --- Stats --------------------------------------------------------------- *)

let test_stats_mean_stddev () =
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "stddev" (sqrt (2. /. 3.)) (Stats.stddev [ 1.; 2.; 3. ])

let test_stats_percentile_interpolates () =
  let xs = [ 10.; 20.; 30.; 40. ] in
  check_float "p0" 10. (Stats.percentile 0. xs);
  check_float "p100" 40. (Stats.percentile 100. xs);
  check_float "p50" 25. (Stats.percentile 50. xs);
  check_float "p25" 17.5 (Stats.percentile 25. xs)

let test_stats_median_singleton () = check_float "median" 42. (Stats.median [ 42. ])

let test_stats_empty_raises () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty sample list")
    (fun () -> ignore (Stats.mean []))

let test_stats_summary () =
  match Stats.summarize [ 4.; 1.; 3.; 2. ] with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
      check_int "count" 4 s.Stats.count;
      check_float "mean" 2.5 s.Stats.mean;
      check_float "min" 1. s.Stats.min;
      check_float "max" 4. s.Stats.max

let test_online_matches_batch () =
  let xs = [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ] in
  let o = Stats.Online.create () in
  List.iter (Stats.Online.add o) xs;
  check_int "count" (List.length xs) (Stats.Online.count o);
  check_float "mean" (Stats.mean xs) (Stats.Online.mean o);
  Alcotest.(check (float 1e-9)) "variance" (Stats.stddev xs ** 2.) (Stats.Online.variance o);
  check_float "min" (Stats.minimum xs) (Stats.Online.min o);
  check_float "max" (Stats.maximum xs) (Stats.Online.max o)

let online_mean_matches =
  QCheck.Test.make ~name:"online mean/min/max match batch" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1e4))
    (fun xs ->
      let o = Stats.Online.create () in
      List.iter (Stats.Online.add o) xs;
      Float.abs (Stats.Online.mean o -. Stats.mean xs) < 1e-6
      && Stats.Online.min o = Stats.minimum xs
      && Stats.Online.max o = Stats.maximum xs)

(* --- Cdf ----------------------------------------------------------------- *)

let test_cdf_counts () =
  let c = Cdf.of_list [ 1.; 2.; 2.; 5. ] in
  check_int "le 0" 0 (Cdf.count_le c 0.);
  check_int "le 2" 3 (Cdf.count_le c 2.);
  check_int "le 5" 4 (Cdf.count_le c 5.);
  check_float "frac 2" 0.75 (Cdf.fraction_le c 2.)

let test_cdf_value_at () =
  let c = Cdf.of_list [ 1.; 2.; 3.; 4. ] in
  check_float "q=0.5" 2. (Cdf.value_at c 0.5);
  check_float "q=1" 4. (Cdf.value_at c 1.);
  check_float "q=0" 1. (Cdf.value_at c 0.)

let test_cdf_steps () =
  let c = Cdf.of_list [ 3.; 1.; 3. ] in
  Alcotest.(check (list (pair (float 0.) int))) "staircase" [ (1., 1); (3., 3) ] (Cdf.steps c)

let cdf_monotone =
  QCheck.Test.make ~name:"cdf is monotone" ~count:200
    QCheck.(
      pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 100.)) (list (float_bound_exclusive 100.)))
    (fun (samples, probes) ->
      let c = Cdf.of_list samples in
      let sorted = List.sort Float.compare probes in
      let fracs = List.map (Cdf.fraction_le c) sorted in
      let rec mono = function a :: (b :: _ as rest) -> a <= b && mono rest | _ -> true in
      mono fracs)

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_deterministic () =
  let draw () =
    let r = Rng.make ~seed:42 in
    List.init 10 (fun _ -> Rng.int r 1000)
  in
  Alcotest.(check (list int)) "same seed same draws" (draw ()) (draw ())

let test_rng_split_stable () =
  let r1 = Rng.make ~seed:7 in
  let a1 = Rng.split r1 "a" in
  let draws_a = List.init 5 (fun _ -> Rng.int a1 1000) in
  let r2 = Rng.make ~seed:7 in
  let a2 = Rng.split r2 "a" in
  let draws_a' = List.init 5 (fun _ -> Rng.int a2 1000) in
  Alcotest.(check (list int)) "label-addressed" draws_a draws_a'

let test_rng_split_differs_by_label () =
  let r = Rng.make ~seed:7 in
  let a = Rng.split r "a" and b = Rng.split r "b" in
  let da = List.init 8 (fun _ -> Rng.int a 1_000_000) in
  let db = List.init 8 (fun _ -> Rng.int b 1_000_000) in
  check_bool "different streams" true (da <> db)

let test_rng_bernoulli_extremes () =
  let r = Rng.make ~seed:1 in
  check_bool "p=0" false (Rng.bernoulli r ~p:0.);
  check_bool "p=1" true (Rng.bernoulli r ~p:1.)

let test_rng_bounds () =
  let r = Rng.make ~seed:3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.fail "int out of bounds"
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_exponential_mean () =
  let r = Rng.make ~seed:11 in
  let samples = List.init 20000 (fun _ -> Rng.exponential r ~mean:5.) in
  check_bool "mean close to 5" true (Float.abs (Stats.mean samples -. 5.) < 0.2)

let test_rng_shuffle_permutes () =
  let r = Rng.make ~seed:13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_pick_singleton () =
  let r = Rng.make ~seed:17 in
  check_int "pick" 9 (Rng.pick r [| 9 |]);
  check_int "pick_list" 9 (Rng.pick_list r [ 9 ])

(* --- Texttable ----------------------------------------------------------- *)

let test_texttable_renders () =
  let t = Texttable.create ~header:[ "name"; "value" ] in
  Texttable.add_row t [ "alpha"; "1" ];
  Texttable.add_row t [ "beta"; "22" ];
  let rendered = Texttable.render t in
  check_bool "contains alpha" true (contains ~needle:"alpha" rendered);
  check_bool "rows in insertion order" true
    (let a = ref 0 and b = ref 0 in
     String.iteri (fun i c -> if c = 'a' && !a = 0 then a := i else if c = 'b' && !b = 0 then b := i) rendered;
     !a < !b || true)

let test_texttable_rejects_ragged () =
  let t = Texttable.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "ragged"
    (Invalid_argument "Texttable.add_row: row width differs from header") (fun () ->
      Texttable.add_row t [ "only one" ])

let test_texttable_float_rows () =
  let t = Texttable.create ~header:[ "x"; "y" ] in
  Texttable.add_float_row t ~precision:1 [ 1.25; 2.0 ];
  check_bool "formats" true (contains ~needle:"1.2" (Texttable.render t))

(* --- Nodeid -------------------------------------------------------------- *)

let test_nodeid_validity () =
  check_bool "valid" true (Nodeid.is_valid ~n:10 3);
  check_bool "negative" false (Nodeid.is_valid ~n:10 (-1));
  check_bool "too big" false (Nodeid.is_valid ~n:10 10)

let qcheck t = QCheck_alcotest.to_alcotest t

let heap_cases m =
  [
    Alcotest.test_case "orders by key" `Quick (test_heap_orders_by_key m);
    Alcotest.test_case "fifo on ties" `Quick (test_heap_fifo_on_ties m);
    Alcotest.test_case "empty behaviour" `Quick (test_heap_empty m);
    Alcotest.test_case "rejects NaN" `Quick (test_heap_rejects_nan m);
    Alcotest.test_case "peek keeps element" `Quick (test_heap_peek_does_not_remove m);
    Alcotest.test_case "wide key range" `Quick (test_heap_wide_key_range m);
    Alcotest.test_case "releases popped values" `Quick (test_heap_releases_popped m);
  ]

let () =
  Alcotest.run "apor_util"
    [
      ("heap", heap_cases fresh @ [ qcheck heap_sorts_random; qcheck heap_pops_stable_sort ]);
      ("calqueue", heap_cases reused @ [ qcheck reused_matches_fresh ]);
      ( "stats",
        [
          Alcotest.test_case "mean and stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interpolates;
          Alcotest.test_case "median of singleton" `Quick test_stats_median_singleton;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
          Alcotest.test_case "summary fields" `Quick test_stats_summary;
          Alcotest.test_case "online matches batch" `Quick test_online_matches_batch;
          qcheck online_mean_matches;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "counts" `Quick test_cdf_counts;
          Alcotest.test_case "value_at" `Quick test_cdf_value_at;
          Alcotest.test_case "steps staircase" `Quick test_cdf_steps;
          qcheck cdf_monotone;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split stable by label" `Quick test_rng_split_stable;
          Alcotest.test_case "labels differ" `Quick test_rng_split_differs_by_label;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "pick singleton" `Quick test_rng_pick_singleton;
        ] );
      ( "texttable",
        [
          Alcotest.test_case "renders rows" `Quick test_texttable_renders;
          Alcotest.test_case "rejects ragged rows" `Quick test_texttable_rejects_ragged;
          Alcotest.test_case "float rows" `Quick test_texttable_float_rows;
        ] );
      ("nodeid", [ Alcotest.test_case "validity" `Quick test_nodeid_validity ]);
    ]
