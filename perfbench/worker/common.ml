(* Shared helpers: clocks, order statistics, histogram read-out and the
   one-line JSON report every mode prints. *)

(* Process CPU seconds (user + system) since the process started. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall_at_start = Unix.gettimeofday ()

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* Nearest-rank percentile of [xs] (unsorted); [p] in [0, 100]. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let median xs = percentile xs 50.

(* Percentiles from [Dataplane.Metrics]' fixed log histograms (100 bins
   per decade).  [percentile p] is the library's read-out: the geometric
   midpoint of the bin holding the sample at rank [p]% of [total], or
   exactly [latency_floor] (100 us) for latencies clamped below the
   histogram; stretch samples never fall below their histogram.

   [hist_bins] recovers the histogram's counts from that read-out: one
   [(midpoint, count)] per non-empty bin, ascending, each bin's rank span
   found by bisection.  Counts taken at two instants subtract
   ([bins_diff]) to give the samples added between them.  [read_bins]
   interpolates geometrically inside the bin holding the rank, so that two
   runs whose percentile falls into one bin still read differently; its
   [value] is [None] when the rank lands on the floor. *)
type bins = (float * int) list
type hist_read = { value : float option; floor_share : float }

let latency_floor = 1e-4

let hist_bins percentile ~total : bins =
  let at r =
    match percentile (100. *. float_of_int r /. float_of_int total) with Some v -> v | None -> nan
  in
  (* largest r in [lo, hi] with pred r, given pred lo *)
  let rec last_true pred lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if pred mid then last_true pred mid hi else last_true pred lo (mid - 1)
  in
  let rec go r acc =
    if r > total then List.rev acc
    else
      let m = at r in
      let hi = last_true (fun r -> at r <= m) r total in
      go (hi + 1) ((m, hi - r + 1) :: acc)
  in
  go 1 []

let bins_diff (later : bins) (earlier : bins) : bins =
  List.filter_map
    (fun (m, n) ->
      let n = n - Option.value (List.assoc_opt m earlier) ~default:0 in
      if n > 0 then Some (m, n) else None)
    later

let read_bins (bins : bins) ~p =
  let total = List.fold_left (fun a (_, n) -> a + n) 0 bins in
  let half = Float.pow 10. (0.5 /. 100.) in
  let rank = max 1 (int_of_float (Float.round (p /. 100. *. float_of_int total))) in
  let rec find seen = function
    | [] -> None
    | (_, n) :: rest when seen + n < rank -> find (seen + n) rest
    | (m, _) :: _ when m = latency_floor -> None
    | (m, n) :: _ ->
        let frac = (float_of_int (rank - seen - 1) +. 0.5) /. float_of_int n in
        Some (m /. half *. Float.pow (half *. half) frac)
  in
  let floor_count = match bins with (m, n) :: _ when m = latency_floor -> n | _ -> 0 in
  { value = find 0 bins; floor_share = float_of_int floor_count /. float_of_int (max 1 total) }

let read_hist percentile ~total ~p = read_bins (hist_bins percentile ~total) ~p

(* --- report ------------------------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Bool of bool
  | Str of string
  | Obj of (string * json) list
  | Arr of json list

let rec render buf = function
  | Num v when Float.is_finite v -> Printf.bprintf buf "%.17g" v
  | Num _ -> Buffer.add_string buf "null"
  | Int i -> Printf.bprintf buf "%d" i
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Str s -> Printf.bprintf buf "%S" s
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "%S:" k;
          render buf v)
        fields;
      Buffer.add_char buf '}'
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          render buf v)
        items;
      Buffer.add_char buf ']'

let print_json j =
  let buf = Buffer.create 4096 in
  render buf j;
  print_endline (Buffer.contents buf)

(* Correctness checks accumulate here and are reported with the result;
   the driver refuses the run if any failed. *)
let checks : (string * bool * string) list ref = ref []

let check name ok detail = checks := (name, ok, detail) :: !checks

let checks_json () =
  Obj
    (List.rev_map
       (fun (name, ok, detail) -> (name, Obj [ ("ok", Bool ok); ("detail", Str detail) ]))
       !checks)

