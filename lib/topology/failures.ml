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
   [up] holds its phase, and the links sit in a heap keyed by the time of
   their next transition, whose insertion order is their arm order; one
   engine wakeup is armed at the earliest due time.  A wakeup pops every
   due link in (time, arm order), the order in which one engine timer per
   link would have fired, so every draw happens in the same order as it
   would have there, and pushes each back at its next transition. *)
type t = {
  flaky : bool array;
  ends : int array; (* link -> i * size + j, i < j *)
  up : Bytes.t; (* link -> '\001' while up *)
  due : int Heap.t; (* links keyed by their next transition *)
}

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
    { flaky; ends = Array.make !links 0; up = Bytes.make !links '\001'; due = Heap.create () }
  in
  let now = Engine.now engine in
  let l = ref 0 in
  for i = first_node to last_node do
    for j = i + 1 to last_node do
      let rate = rate i j in
      if rate > 0. then begin
        t.ends.(!l) <- (i * size) + j;
        Heap.push t.due ~key:(now +. Rng.exponential rng ~mean:(1. /. rate)) !l;
        incr l
      end
    done
  done;
  let rec wakeup () =
    match Heap.peek t.due with
    | Some (at, l) when at <= Engine.now engine ->
        ignore (Heap.pop t.due);
        let i = t.ends.(l) / size and j = t.ends.(l) mod size in
        if Bytes.get t.up l <> '\000' then begin
          Network.set_link_up network i j false;
          Bytes.set t.up l '\000';
          Heap.push t.due ~key:(at +. Rng.exponential rng ~mean:profile.mean_downtime_s) l
        end
        else begin
          Network.set_link_up network i j true;
          Bytes.set t.up l '\001';
          Heap.push t.due ~key:(at +. Rng.exponential rng ~mean:(1. /. rate i j)) l
        end;
        wakeup ()
    | Some _ | None -> arm ()
  and arm () =
    Option.iter (fun (at, _) -> Engine.schedule_at engine ~time:at wakeup) (Heap.peek t.due)
  in
  arm ();
  t

let flaky_nodes t =
  let acc = ref [] in
  Array.iteri (fun i f -> if f then acc := i :: !acc) t.flaky;
  List.rev !acc

let is_flaky t i = i >= 0 && i < Array.length t.flaky && t.flaky.(i)
