open Apor_util
open Apor_quorum

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Grid shapes (the paper's footnote 5) -------------------------------- *)

let test_shape_perfect_square () =
  let g = Grid.build 9 in
  check_int "rows" 3 (Grid.rows g);
  check_int "cols" 3 (Grid.cols g);
  check_bool "complete" true (Grid.is_complete g)

let test_shape_small_fraction () =
  (* sqrt 10 ~ 3.16, a < 0.5: ceil x floor = 4 rows x 3 cols *)
  let g = Grid.build 10 in
  check_int "rows" 4 (Grid.rows g);
  check_int "cols" 3 (Grid.cols g);
  check_int "last row" 1 (Grid.last_row_length g)

let test_shape_large_fraction () =
  (* sqrt 8 ~ 2.83, a >= 0.5: 3 x 3 with two empty cells *)
  let g = Grid.build 8 in
  check_int "rows" 3 (Grid.rows g);
  check_int "cols" 3 (Grid.cols g);
  check_int "last row" 2 (Grid.last_row_length g)

let test_shape_paper_example_18 () =
  (* The paper's 18-node example: 5 rows x 4 cols, k = 2. *)
  let g = Grid.build 18 in
  check_int "rows" 5 (Grid.rows g);
  check_int "cols" 4 (Grid.cols g);
  check_int "last row" 2 (Grid.last_row_length g)

let test_shape_exactly_filled_rectangle () =
  (* n = s^2 + s fills ceil x floor exactly: 12 = 4 x 3. *)
  let g = Grid.build 12 in
  check_int "rows" 4 (Grid.rows g);
  check_int "cols" 3 (Grid.cols g);
  check_bool "complete" true (Grid.is_complete g)

let test_shape_tiny () =
  let g1 = Grid.build 1 in
  check_int "n=1 rows" 1 (Grid.rows g1);
  let g2 = Grid.build 2 in
  check_int "n=2 size" 2 (Grid.size g2);
  Alcotest.(check (list int)) "n=2 servers of 0" [ 1 ] (Grid.rendezvous_servers g2 0);
  Alcotest.(check (list int)) "n=2 servers of 1" [ 0 ] (Grid.rendezvous_servers g2 1)

let test_build_rejects_bad_n () =
  Alcotest.check_raises "zero" (Invalid_argument "Grid.build: n outside [1, Nodeid.max_nodes]")
    (fun () -> ignore (Grid.build 0))

(* --- Positions and membership -------------------------------------------- *)

let test_positions_row_major () =
  let g = Grid.build 9 in
  Alcotest.(check (pair int int)) "node 0" (0, 0) (Grid.position g 0);
  Alcotest.(check (pair int int)) "node 5" (1, 2) (Grid.position g 5);
  Alcotest.(check (option int)) "cell (2,1)" (Some 7) (Grid.node_at g ~row:2 ~col:1);
  Alcotest.(check (option int)) "blank cell" None (Grid.node_at g ~row:3 ~col:0)

let test_row_col_members () =
  let g = Grid.build 9 in
  Alcotest.(check (list int)) "row 1" [ 3; 4; 5 ] (Grid.row_members g 1);
  Alcotest.(check (list int)) "col 2" [ 2; 5; 8 ] (Grid.col_members g 2)

(* --- Rendezvous structure (Figure 2 / Theorem 1) ------------------------- *)

let test_servers_of_center_node () =
  (* Node 4 sits at (1,1) of the 3x3 grid: servers are row {3,5} and
     column {1,7}. *)
  let g = Grid.build 9 in
  Alcotest.(check (list int)) "R_4" [ 1; 3; 5; 7 ] (Grid.rendezvous_servers g 4)

let test_figure2_node9_servers () =
  (* The paper's Figure 3: node 9 (1-based) = node 8 (0-based) has servers
     3, 6, 8, 7 (1-based) = 2, 5, 7, 6 (0-based). *)
  let g = Grid.build 9 in
  Alcotest.(check (list int)) "R_9(paper)" [ 2; 5; 6; 7 ] (Grid.rendezvous_servers g 8)

let test_clients_equal_servers () =
  let g = Grid.build 18 in
  for i = 0 to 17 do
    Alcotest.(check (list int))
      (Printf.sprintf "C_%d = R_%d" i i)
      (Grid.rendezvous_servers g i) (Grid.rendezvous_clients g i)
  done

let test_common_rendezvous_perfect () =
  let g = Grid.build 9 in
  (* nodes 0 (0,0) and 4 (1,1) intersect at (0,1)=1 and (1,0)=3 *)
  Alcotest.(check (list int)) "two intersections" [ 1; 3 ] (Grid.common_rendezvous g 0 4)

let test_connecting_includes_row_partner () =
  let g = Grid.build 9 in
  (* same-row nodes serve each other: connecting(0,1) must contain both *)
  let c = Grid.connecting g 0 1 in
  check_bool "0 in" true (List.mem 0 c);
  check_bool "1 in" true (List.mem 1 c)

let test_verify_many_sizes () =
  for n = 1 to 200 do
    match Grid.verify (Grid.build n) with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "grid %d: %s" n msg
  done

let test_degree_bound () =
  List.iter
    (fun n ->
      let g = Grid.build n in
      let bound = 2 * Grid.rows g in
      check_bool
        (Printf.sprintf "degree bound n=%d" n)
        true
        (Grid.max_rendezvous_degree g <= bound))
    [ 4; 9; 10; 18; 50; 140; 141; 256; 300 ]

let test_incomplete_grid_extras_symmetric () =
  (* 18-node grid: last row k=2; bottom node (4,0)=16 pairs with (0,2),(0,3)
     = nodes 2,3; check mutual service. *)
  let g = Grid.build 18 in
  check_bool "16 serves 2" true (Grid.is_rendezvous_for g ~server:16 ~client:2);
  check_bool "2 serves 16" true (Grid.is_rendezvous_for g ~server:2 ~client:16);
  check_bool "16 serves 3" true (Grid.is_rendezvous_for g ~server:16 ~client:3)

let test_double_intersection_complete_grids () =
  (* Complete grids guarantee two common rendezvous for off-row/col pairs. *)
  List.iter
    (fun n ->
      let g = Grid.build n in
      let size = Grid.size g in
      for i = 0 to size - 1 do
        for j = i + 1 to size - 1 do
          let ri, ci = Grid.position g i and rj, cj = Grid.position g j in
          if ri <> rj && ci <> cj then begin
            let common = List.length (Grid.common_rendezvous g i j) in
            if common < 2 then
              Alcotest.failf "pair (%d,%d) of n=%d has %d common rendezvous" i j n common
          end
        done
      done)
    [ 4; 9; 12; 16; 25; 100 ]

let cover_property =
  QCheck.Test.make ~name:"every pair has a connecting node (n in [2,400])" ~count:60
    QCheck.(int_range 2 400)
    (fun n ->
      let g = Grid.build n in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Grid.connecting g i j = [] then ok := false
        done
      done;
      !ok)

let servers_sorted_and_self_free =
  QCheck.Test.make ~name:"server lists are sorted, self-free, in range" ~count:60
    QCheck.(int_range 1 300)
    (fun n ->
      let g = Grid.build n in
      let ok = ref true in
      for i = 0 to n - 1 do
        let s = Grid.rendezvous_servers g i in
        let rec sorted = function
          | a :: (b :: _ as rest) -> a < b && sorted rest
          | _ -> true
        in
        if (not (sorted s)) || List.mem i s || List.exists (fun x -> x < 0 || x >= n) s
        then ok := false
      done;
      !ok)

let symmetry_property =
  QCheck.Test.make ~name:"rendezvous relation is symmetric" ~count:40
    QCheck.(int_range 1 300)
    (fun n ->
      let g = Grid.build n in
      let ok = ref true in
      for i = 0 to n - 1 do
        List.iter
          (fun s -> if not (Grid.is_rendezvous_for g ~server:i ~client:s) then ok := false)
          (Grid.rendezvous_servers g i)
      done;
      !ok)

(* --- Closed form against the tabulated reference ----------------------------- *)

(* The table-building construction [Grid] used before it answered queries
   by arithmetic: every node's server list and server set, built
   cell by cell from the paper's row/column rule and its extra
   assignments, with every query a lookup or a set operation.  Kept here
   as the reference the closed form must agree with exactly.  It takes the
   grid's shape from [Grid], whose shape tests are above. *)
module Reference = struct
  type t = { servers : Nodeid.t list array; server_sets : Nodeid.Set.t array }

  let build n =
    let g = Grid.build n in
    let rows = Grid.rows g and cols = Grid.cols g in
    let k = Grid.last_row_length g in
    let node_at ~row ~col =
      if row < 0 || col < 0 || row >= rows || col >= cols then None
      else begin
        let id = (row * cols) + col in
        if id < n then Some id else None
      end
    in
    let extra_partners ~row ~col =
      if k >= cols then []
      else if row = rows - 1 then begin
        if col > rows - 2 then []
        else List.filter_map (fun j -> node_at ~row:col ~col:j) (List.init (cols - k) (( + ) k))
      end
      else if col >= k && row < k then Option.to_list (node_at ~row:(rows - 1) ~col:row)
      else []
    in
    let server_sets =
      Array.init n (fun id ->
          let row = id / cols and col = id mod cols in
          let add acc other = if other = id then acc else Nodeid.Set.add other acc in
          let add_cell acc cell = Option.fold ~none:acc ~some:(add acc) cell in
          let in_row =
            List.fold_left
              (fun acc c -> add_cell acc (node_at ~row ~col:c))
              Nodeid.Set.empty (List.init cols Fun.id)
          in
          let in_row_col =
            List.fold_left
              (fun acc r -> add_cell acc (node_at ~row:r ~col))
              in_row (List.init rows Fun.id)
          in
          List.fold_left add in_row_col (extra_partners ~row ~col))
    in
    { servers = Array.map Nodeid.Set.elements server_sets; server_sets }

  let is_rendezvous_for t ~server ~client = Nodeid.Set.mem server t.server_sets.(client)

  let common_rendezvous t i j =
    Nodeid.Set.elements (Nodeid.Set.inter t.server_sets.(i) t.server_sets.(j))

  let connecting t i j =
    let common = Nodeid.Set.inter t.server_sets.(i) t.server_sets.(j) in
    let common =
      if Nodeid.Set.mem i t.server_sets.(j) then Nodeid.Set.add i common else common
    in
    let common =
      if Nodeid.Set.mem j t.server_sets.(i) then Nodeid.Set.add j common else common
    in
    Nodeid.Set.elements common

  let max_rendezvous_degree t =
    Array.fold_left (fun acc l -> max acc (List.length l)) 0 t.servers
end

(* Per-node and per-pair queries of the closed form equal the reference's;
   [pairs] picks the pairs to compare (all of them for small n).  Compared
   with [=] and reported only on a mismatch: millions of pairs are checked. *)
let agrees_with_reference ~pairs n =
  let g = Grid.build n and r = Reference.build n in
  let show l = String.concat "," (List.map string_of_int l) in
  let same_list what expected got =
    if expected <> got then
      Alcotest.failf "n=%d %s: closed form [%s], reference [%s]" n (what ()) (show got)
        (show expected)
  in
  check_int (Printf.sprintf "n=%d max degree" n) (Reference.max_rendezvous_degree r)
    (Grid.max_rendezvous_degree g);
  for i = 0 to n - 1 do
    let what () = Printf.sprintf "servers of %d" i in
    same_list what r.servers.(i) (Grid.rendezvous_servers g i);
    same_list what r.servers.(i) (Grid.rendezvous_clients g i);
    same_list what r.servers.(i) (Grid.failover_candidates g ~dst:i)
  done;
  List.iter
    (fun (i, j) ->
      if Reference.is_rendezvous_for r ~server:i ~client:j
         <> Grid.is_rendezvous_for g ~server:i ~client:j
      then Alcotest.failf "n=%d: is_rendezvous_for ~server:%d ~client:%d differs" n i j;
      same_list (fun () -> Printf.sprintf "common (%d,%d)" i j)
        (Reference.common_rendezvous r i j) (Grid.common_rendezvous g i j);
      same_list (fun () -> Printf.sprintf "connecting (%d,%d)" i j)
        (Reference.connecting r i j) (Grid.connecting g i j))
    (pairs n)

let all_pairs n = List.concat_map (fun i -> List.init n (fun j -> (i, j))) (List.init n Fun.id)

let test_closed_form_every_n () =
  for n = 1 to 200 do
    agrees_with_reference ~pairs:all_pairs n
  done

let closed_form_large_n =
  QCheck.Test.make ~name:"closed form = reference, random n up to 1024" ~count:25
    QCheck.(pair (int_range 1 1024) int)
    (fun (n, seed) ->
      let rng = Rng.make ~seed in
      let pairs n =
        List.init 3000 (fun _ -> (Rng.int rng n, Rng.int rng n))
        @ List.init n (fun i -> (i, n - 1 - i))
      in
      agrees_with_reference ~pairs n;
      true)

let test_grid_is_constant_size () =
  let words n = Obj.reachable_words (Obj.repr (Grid.build n)) in
  check_int "words at n=16 and n=4096" (words 16) (words 4096)

(* --- The oracle's static intersection check (lib/trace) -------------------- *)

let oracle_cover_property =
  (* Theorem 1 as the trace oracle states it: every pair of every grid has
     >= 1 connecting rendezvous; pairs sharing neither row nor column have
     >= 2 common rendezvous whenever both crossing cells are occupied.
     (The unconditional ">= 2" claim is false on ragged grids, where a
     crossing cell can fall in the blank tail of the last row.) *)
  QCheck.Test.make ~name:"oracle grid-cover check passes for n in [2,30]" ~count:29
    QCheck.(int_range 2 30)
    (fun n ->
      match Apor_trace.Oracle.check_grid_cover (Grid.build n) with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "n=%d: %s" n msg)

let test_cover_width_every_pair () =
  for n = 2 to 30 do
    let s = System.of_grid (Grid.build n) in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if System.cover_width s i j < 1 then
          Alcotest.failf "n=%d: pair (%d,%d) has no connecting node" n i j
      done
    done
  done

(* --- Failover candidates -------------------------------------------------- *)

let test_failover_candidates_exclude () =
  let g = Grid.build 9 in
  let excluded = Nodeid.Set.of_list [ 2 ] in
  let c = Failover.candidates g ~self:0 ~dst:8 ~excluded in
  check_bool "no self" true (not (List.mem 0 c));
  check_bool "no dst" true (not (List.mem 8 c));
  check_bool "no excluded" true (not (List.mem 2 c));
  check_bool "nonempty" true (c <> [])

let test_failover_choose_exhausted () =
  let g = Grid.build 9 in
  let all = Nodeid.Set.of_list (List.init 9 Fun.id) in
  let rng = Rng.make ~seed:5 in
  Alcotest.(check (option int)) "exhausted" None
    (Failover.choose ~rng g ~self:0 ~dst:8 ~excluded:all)

let test_failover_choose_uniformish () =
  let g = Grid.build 16 in
  let rng = Rng.make ~seed:23 in
  let counts = Hashtbl.create 8 in
  for _ = 1 to 2000 do
    match Failover.choose ~rng g ~self:0 ~dst:15 ~excluded:Nodeid.Set.empty with
    | Some f ->
        Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
    | None -> Alcotest.fail "unexpected exhaustion"
  done;
  let pool = Failover.candidates g ~self:0 ~dst:15 ~excluded:Nodeid.Set.empty in
  check_int "all candidates drawn" (List.length pool) (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      (* 2000 draws over 6 candidates: expect ~333 each; 3x bounds are lax *)
      check_bool "roughly uniform" true (c > 100 && c < 1000))
    counts

let test_failover_candidates_receive_dst_state () =
  (* every candidate must be a rendezvous server of dst, i.e. hold its
     link state — otherwise it cannot recommend routes to dst *)
  let g = Grid.build 18 in
  List.iter
    (fun dst ->
      List.iter
        (fun f ->
          check_bool "serves dst" true (Grid.is_rendezvous_for g ~server:f ~client:dst))
        (Failover.candidates g ~self:0 ~dst ~excluded:Nodeid.Set.empty))
    [ 1; 7; 16; 17 ]


(* --- Generic quorum systems and the cyclic construction --------------------- *)

let test_system_of_grid_verifies () =
  List.iter
    (fun n ->
      match System.verify (System.of_grid (Grid.build n)) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "grid system n=%d: %s" n msg)
    [ 1; 2; 5; 9; 18; 40; 100 ]

let test_cyclic_verifies () =
  List.iter
    (fun n ->
      match System.verify (Cyclic.system n) with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "cyclic n=%d: %s" n msg)
    [ 1; 2; 3; 4; 5; 8; 9; 16; 17; 18; 25; 30; 49; 50; 77; 100; 101 ]

let cyclic_cover_property =
  QCheck.Test.make ~name:"cyclic quorum covers every pair" ~count:40
    QCheck.(int_range 2 300)
    (fun n ->
      let s = Cyclic.system n in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if s.System.connecting i j = [] then ok := false
        done
      done;
      !ok)

let test_cyclic_is_asymmetric_but_balanced () =
  let s = Cyclic.system 50 in
  (* not symmetric: servers <> clients for at least one node *)
  let asym = ref false in
  for i = 0 to 49 do
    if s.System.servers i <> s.System.clients i then asym := true
  done;
  check_bool "asymmetric relation" true !asym;
  (* but perfectly balanced by rotation invariance *)
  Alcotest.(check (float 1e-9)) "imbalance" 1.0 (System.load_imbalance s)

let test_cyclic_degree_order_sqrt () =
  List.iter
    (fun n ->
      let s = Cyclic.system n in
      let bound = 2 * int_of_float (ceil (sqrt (float_of_int n))) in
      check_bool
        (Printf.sprintf "degree %d <= %d at n=%d" (System.max_degree s) bound n)
        true
        (System.max_degree s <= bound))
    [ 9; 20; 100; 144; 200 ]

let test_grid_imbalance_worse_on_ragged_sizes () =
  (* with a nearly-empty last row the grid's load spreads unevenly while
     the cyclic construction stays perfectly balanced *)
  let n = 10 in
  let grid = System.of_grid (Grid.build n) in
  let cyclic = Cyclic.system n in
  check_bool "grid imbalance > cyclic" true
    (System.load_imbalance grid > System.load_imbalance cyclic)


(* --- Probabilistic quorums (reference [14]) ---------------------------------- *)

let test_probabilistic_verifies_structure () =
  (* duality and self-freeness always hold; the cover is only probabilistic,
     so System.verify's cover check is skipped by testing pieces directly *)
  let s = Probabilistic.system ~seed:1 60 in
  for i = 0 to 59 do
    check_bool "self-free" true (not (List.mem i (s.System.servers i)));
    List.iter
      (fun k -> check_bool "duality" true (List.mem i (s.System.clients k)))
      (s.System.servers i)
  done

let test_probabilistic_coverage_near_one () =
  let n = 100 in
  let s = Probabilistic.system ~seed:3 n in
  let measured = Probabilistic.coverage s in
  let expected_miss = Probabilistic.expected_miss_rate n in
  check_bool
    (Printf.sprintf "coverage %.5f vs expected miss %.5f" measured expected_miss)
    true
    (measured >= 1. -. (10. *. expected_miss) -. 0.01)

let test_probabilistic_low_multiplier_misses () =
  (* with multiplier 1 the analytic miss rate is ~e^-1; the measured
     coverage must reflect it (i.e., clearly below 1) *)
  let n = 144 in
  let s = Probabilistic.system ~multiplier:1. ~seed:5 n in
  let measured = Probabilistic.coverage s in
  check_bool (Printf.sprintf "coverage %.3f < 0.95" measured) true (measured < 0.95);
  check_bool "analytic in same regime" true
    (Probabilistic.expected_miss_rate ~multiplier:1. n > 0.2)

let test_probabilistic_deterministic_by_seed () =
  let a = Probabilistic.system ~seed:7 50 and b = Probabilistic.system ~seed:7 50 in
  for i = 0 to 49 do
    Alcotest.(check (list int)) "same sets" (a.System.servers i) (b.System.servers i)
  done

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "apor_quorum"
    [
      ( "shape",
        [
          Alcotest.test_case "perfect square" `Quick test_shape_perfect_square;
          Alcotest.test_case "a < 0.5" `Quick test_shape_small_fraction;
          Alcotest.test_case "a >= 0.5" `Quick test_shape_large_fraction;
          Alcotest.test_case "paper's 18-node example" `Quick test_shape_paper_example_18;
          Alcotest.test_case "exactly-filled rectangle" `Quick test_shape_exactly_filled_rectangle;
          Alcotest.test_case "tiny overlays" `Quick test_shape_tiny;
          Alcotest.test_case "rejects bad n" `Quick test_build_rejects_bad_n;
        ] );
      ( "layout",
        [
          Alcotest.test_case "row-major positions" `Quick test_positions_row_major;
          Alcotest.test_case "row/col members" `Quick test_row_col_members;
        ] );
      ( "rendezvous",
        [
          Alcotest.test_case "servers of center node" `Quick test_servers_of_center_node;
          Alcotest.test_case "figure 3 example" `Quick test_figure2_node9_servers;
          Alcotest.test_case "clients = servers" `Quick test_clients_equal_servers;
          Alcotest.test_case "double intersection" `Quick test_common_rendezvous_perfect;
          Alcotest.test_case "row partners connect" `Quick test_connecting_includes_row_partner;
          Alcotest.test_case "verify n in [1,200]" `Slow test_verify_many_sizes;
          Alcotest.test_case "degree bound" `Quick test_degree_bound;
          Alcotest.test_case "extra assignments symmetric" `Quick test_incomplete_grid_extras_symmetric;
          Alcotest.test_case "complete grids intersect twice" `Slow test_double_intersection_complete_grids;
          qcheck cover_property;
          qcheck servers_sorted_and_self_free;
          qcheck symmetry_property;
          qcheck oracle_cover_property;
          Alcotest.test_case "cover width >= 1 everywhere" `Quick test_cover_width_every_pair;
        ] );
      ( "reference",
        [
          Alcotest.test_case "= reference, every n in [1,200]" `Slow test_closed_form_every_n;
          qcheck closed_form_large_n;
          Alcotest.test_case "O(1) words" `Quick test_grid_is_constant_size;
        ] );
      ( "system",
        [
          Alcotest.test_case "grid via generic interface" `Quick test_system_of_grid_verifies;
          Alcotest.test_case "cyclic verifies" `Quick test_cyclic_verifies;
          Alcotest.test_case "cyclic asymmetric but balanced" `Quick test_cyclic_is_asymmetric_but_balanced;
          Alcotest.test_case "cyclic degree O(sqrt n)" `Quick test_cyclic_degree_order_sqrt;
          Alcotest.test_case "grid raggedness vs cyclic" `Quick test_grid_imbalance_worse_on_ragged_sizes;
          qcheck cyclic_cover_property;
          Alcotest.test_case "probabilistic structure" `Quick test_probabilistic_verifies_structure;
          Alcotest.test_case "probabilistic coverage" `Quick test_probabilistic_coverage_near_one;
          Alcotest.test_case "probabilistic misses at low multiplier" `Quick test_probabilistic_low_multiplier_misses;
          Alcotest.test_case "probabilistic deterministic" `Quick test_probabilistic_deterministic_by_seed;
        ] );
      ( "failover",
        [
          Alcotest.test_case "candidates exclude" `Quick test_failover_candidates_exclude;
          Alcotest.test_case "exhausted pool" `Quick test_failover_choose_exhausted;
          Alcotest.test_case "roughly uniform" `Quick test_failover_choose_uniformish;
          Alcotest.test_case "candidates hold dst state" `Quick test_failover_candidates_receive_dst_state;
        ] );
    ]
