open Apor_util
open Apor_sim

type profile = {
  mean_time_to_failure_s : float;
  mean_downtime_s : float;
  flaky_fraction : float;
  flaky_rate_multiplier : float;
}

let calm =
  {
    mean_time_to_failure_s = infinity;
    mean_downtime_s = 60.;
    flaky_fraction = 0.;
    flaky_rate_multiplier = 1.;
  }

let planetlab =
  {
    mean_time_to_failure_s = 6000.;
    mean_downtime_s = 150.;
    flaky_fraction = 0.08;
    flaky_rate_multiplier = 45.;
  }

(* Each link with a positive failure rate runs an up/down renewal process.
   Its next transition is due at [due.(l)] and [up] holds its phase; the
   links sit in a binary min-heap on (due, arm order), and one engine
   wakeup is armed at the earliest due time.  A wakeup processes every
   due link in key order, the order in which one engine timer per link
   would have fired, so every draw happens in the same order as it would
   have there. *)
type t = {
  flaky : bool array;
  ends : int array; (* link -> i * size + j, i < j *)
  due : float array; (* link -> time of its next transition *)
  up : Bytes.t; (* link -> '\001' while up *)
  order : int array; (* link -> arm order of [due] *)
  heap : int array; (* links, min-heap on (due, order); every link is in it *)
  mutable arms : int;
}

let[@inline] before t a b =
  let da = Array.unsafe_get t.due a and db = Array.unsafe_get t.due b in
  da < db || (da = db && t.order.(a) < t.order.(b))

let rec sift_up t i l =
  if i = 0 then t.heap.(0) <- l
  else
    let parent = (i - 1) / 2 in
    let q = t.heap.(parent) in
    if before t l q then begin
      t.heap.(i) <- q;
      sift_up t parent l
    end
    else t.heap.(i) <- l

let rec sift_down t i l =
  let len = Array.length t.heap in
  let c = (2 * i) + 1 in
  if c >= len then t.heap.(i) <- l
  else
    let c = if c + 1 < len && before t t.heap.(c + 1) t.heap.(c) then c + 1 else c in
    let q = t.heap.(c) in
    if before t q l then begin
      t.heap.(i) <- q;
      sift_down t c l
    end
    else t.heap.(i) <- l

(* Set link [l]'s next transition; the caller restores the heap. *)
let arm t l ~at =
  t.due.(l) <- at;
  t.order.(l) <- t.arms;
  t.arms <- t.arms + 1

let install ~engine ?(first_node = 0) ?last_node ~profile ~seed () =
  let network = Engine.network engine in
  let size = Network.size network in
  let last_node = Option.value last_node ~default:(size - 1) in
  let rng = Rng.split (Rng.make ~seed) "failures" in
  let flaky = Array.make size false in
  for i = first_node to last_node do
    flaky.(i) <- Rng.bernoulli rng ~p:profile.flaky_fraction
  done;
  let base_rate =
    if Float.is_finite profile.mean_time_to_failure_s then
      1. /. profile.mean_time_to_failure_s
    else 0.
  in
  let node_rate i = if flaky.(i) then base_rate *. profile.flaky_rate_multiplier else base_rate in
  (* Half the link's failure rate comes from each endpoint. *)
  let rate i j = (node_rate i +. node_rate j) /. 2. in
  let links = ref 0 in
  for i = first_node to last_node do
    for j = i + 1 to last_node do
      if rate i j > 0. then incr links
    done
  done;
  let t =
    {
      flaky;
      ends = Array.make !links 0;
      due = Array.make !links 0.;
      up = Bytes.make !links '\001';
      order = Array.make !links 0;
      heap = Array.make !links 0;
      arms = 0;
    }
  in
  let now = Engine.now engine in
  let l = ref 0 in
  for i = first_node to last_node do
    for j = i + 1 to last_node do
      let rate = rate i j in
      if rate > 0. then begin
        t.ends.(!l) <- (i * size) + j;
        arm t !l ~at:(now +. Rng.exponential rng ~mean:(1. /. rate));
        sift_up t !l !l;
        incr l
      end
    done
  done;
  let rec wakeup () =
    let now = Engine.now engine in
    while t.due.(t.heap.(0)) <= now do
      let l = t.heap.(0) in
      let i = t.ends.(l) / size and j = t.ends.(l) mod size in
      let at = t.due.(l) in
      if Bytes.get t.up l <> '\000' then begin
        Network.set_link_up network i j false;
        Bytes.set t.up l '\000';
        arm t l ~at:(at +. Rng.exponential rng ~mean:profile.mean_downtime_s)
      end
      else begin
        Network.set_link_up network i j true;
        Bytes.set t.up l '\001';
        arm t l ~at:(at +. Rng.exponential rng ~mean:(1. /. rate i j))
      end;
      sift_down t 0 l
    done;
    Engine.schedule_at engine ~time:t.due.(t.heap.(0)) wakeup
  in
  if !links > 0 then Engine.schedule_at engine ~time:t.due.(t.heap.(0)) wakeup;
  t

let flaky_nodes t =
  let acc = ref [] in
  Array.iteri (fun i f -> if f then acc := i :: !acc) t.flaky;
  List.rev !acc

let is_flaky t i = i >= 0 && i < Array.length t.flaky && t.flaky.(i)
