(* The link monitor's one-wakeup schedule:

   - equivalence: the monitor behaves exactly like the per-peer-timer
     monitor it replaced, kept below as a reference model (one probe and
     one timeout timer per peer, generation counters, a binary heap of
     timers ordered like the simulator's engine);
   - bounds: few armed wakeups, each at the earliest due time; about ten
     words of state per port; a simulator event queue linear in n. *)

open Apor_util
open Apor_linkstate
open Apor_overlay
open Apor_overlay_core
open Apor_topology

let check_bool = Alcotest.(check bool)

(* --- reference model: per-peer timers ------------------------------------ *)

module Reference = struct
  type timer =
    | Probe of { peer : int; generation : int }
    | Timeout of { peer : int; generation : int; seq : int }

  type peer = {
    mutable active : bool;
    mutable latency : float option;
    mutable loss : float option;
    mutable alive : bool;
    mutable measured : bool;
    mutable losses : int;
    mutable next_seq : int;
    mutable outstanding : (int * float) option;
    mutable generation : int;
  }

  type t = {
    config : Config.t;
    self : int;
    peers : peer array;
    rng : Rng.t;
    timers : timer Heap.t;  (* ties broken by insertion, like the engine *)
    eff : Monitor.effects;
  }

  let create ~config ~self ~capacity ~rng eff =
    let fresh () =
      {
        active = false;
        latency = None;
        loss = None;
        alive = true;
        measured = false;
        losses = 0;
        next_seq = 0;
        outstanding = None;
        generation = 0;
      }
    in
    { config; self; peers = Array.init capacity (fun _ -> fresh ()); rng; timers = Heap.create (); eff }

  let ewma t e x =
    let a = t.config.Config.ewma_alpha in
    match e with None -> Some x | Some e -> Some ((a *. e) +. ((1. -. a) *. x))

  let arm t ~now ~delay timer = Heap.push t.timers ~key:(now +. delay) timer

  let rec on_probe t ~now ~peer ~generation =
    let p = t.peers.(peer) in
    if p.active && p.generation = generation then begin
      let seq = p.next_seq in
      p.next_seq <- seq + 1;
      p.outstanding <- Some (seq, now);
      t.eff.send_probe ~dst:peer ~seq;
      arm t ~now ~delay:t.config.probe_timeout_s (Timeout { peer; generation; seq });
      let next =
        if p.losses >= 1 && p.losses < t.config.probes_for_failure then
          t.config.rapid_probe_interval_s
        else t.config.probe_interval_s
      in
      arm t ~now ~delay:next (Probe { peer; generation })
    end

  and on_timeout t ~now ~peer ~generation ~seq =
    let p = t.peers.(peer) in
    if p.active && p.generation = generation then
      match p.outstanding with
      | Some (s, _) when s = seq ->
          p.outstanding <- None;
          p.losses <- p.losses + 1;
          p.loss <- ewma t p.loss 1.;
          if p.alive && p.losses >= t.config.probes_for_failure then begin
            p.alive <- false;
            t.eff.on_peer_death peer
          end
          else if p.alive && p.losses = 1 then begin
            p.generation <- p.generation + 1;
            on_probe t ~now ~peer ~generation:p.generation
          end
      | Some _ | None -> ()

  let set_peers t ~now ports =
    let wanted = Array.make (Array.length t.peers) false in
    List.iter (fun port -> wanted.(port) <- true) ports;
    Array.iteri
      (fun port p ->
        if port <> t.self then
          if wanted.(port) && not p.active then begin
            p.active <- true;
            p.generation <- p.generation + 1;
            p.losses <- 0;
            let phase = Rng.float t.rng t.config.probe_interval_s in
            arm t ~now ~delay:phase (Probe { peer = port; generation = p.generation })
          end
          else if (not wanted.(port)) && p.active then begin
            p.active <- false;
            p.generation <- p.generation + 1;
            p.outstanding <- None
          end)
      t.peers

  let next_key t = Option.map fst (Heap.peek t.timers)

  (* Fire every timer due by [upto], each at its own time, which [clock]
     holds while it runs. *)
  let rec run_until t ~clock upto =
    match Heap.peek t.timers with
    | Some (key, _) when key <= upto ->
        clock := key;
        (match Heap.pop t.timers with
        | Some (now, Probe { peer; generation }) -> on_probe t ~now ~peer ~generation
        | Some (now, Timeout { peer; generation; seq }) -> on_timeout t ~now ~peer ~generation ~seq
        | None -> ());
        run_until t ~clock upto
    | Some _ | None -> ()

  let handle_reply t ~now ~src ~seq =
    let p = t.peers.(src) in
    match p.outstanding with
    | Some (s, sent_at) when s = seq ->
        p.outstanding <- None;
        p.latency <- ewma t p.latency ((now -. sent_at) *. 1000.);
        p.loss <- ewma t p.loss 0.;
        p.measured <- true;
        p.losses <- 0;
        if not p.alive then begin
          p.alive <- true;
          t.eff.on_peer_recovery src
        end
    | Some _ | None -> ()

  let force_status t port ~up =
    let p = t.peers.(port) in
    if up && not p.alive then begin
      p.alive <- true;
      p.losses <- 0;
      t.eff.on_peer_recovery port
    end
    else if (not up) && p.alive then begin
      p.alive <- false;
      t.eff.on_peer_death port
    end

  let peers t =
    List.filter (fun port -> t.peers.(port).active) (List.init (Array.length t.peers) Fun.id)

  let latency_ms t port = t.peers.(port).latency
  let loss t port = Option.value t.peers.(port).loss ~default:0.
  let alive t port = t.peers.(port).alive

  let entry_for t port =
    let p = t.peers.(port) in
    match p.latency with
    | Some latency_ms when p.alive && p.measured ->
        Entry.make ~latency_ms ~loss:(Float.max 0. (Float.min 1. (loss t port))) ~alive:true
    | Some _ | None -> Entry.unreachable

  let concurrent_failures t =
    Array.fold_left
      (fun acc p -> if p.active && p.measured && not p.alive then acc + 1 else acc)
      0 t.peers
end

(* --- the two monitors side by side --------------------------------------- *)

type event = Sent of float * int * int | Died of float * int | Recovered of float * int

let pp_event ppf = function
  | Sent (at, dst, seq) -> Format.fprintf ppf "%.9f send(%d, seq=%d)" at dst seq
  | Died (at, p) -> Format.fprintf ppf "%.9f death(%d)" at p
  | Recovered (at, p) -> Format.fprintf ppf "%.9f recovery(%d)" at p

let events = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_event

(* Effects that log into [log] at the time [clock] holds. *)
let logging_effects ~clock ~log ~set_wakeup =
  {
    Monitor.send_probe = (fun ~dst ~seq -> log := Sent (!clock, dst, seq) :: !log);
    set_wakeup;
    on_peer_death = (fun p -> log := Died (!clock, p) :: !log);
    on_peer_recovery = (fun p -> log := Recovered (!clock, p) :: !log);
  }

(* The monitor with a fake host: armed wakeups are a list, fired in time
   order, each at its own time.  [exact] turns false if a wakeup is ever
   armed anywhere but at the earliest due time of the moment. *)
type fake = {
  monitor : Monitor.t;
  clock : float ref;
  log : event list ref;
  wakeups : float list ref;  (* armed, unfired *)
  exact : bool ref;
}

let fake_monitor ~config ~capacity ~seed =
  let clock = ref 0. and log = ref [] and wakeups = ref [] and exact = ref true in
  let self = ref None in
  let set_wakeup ~at =
    Option.iter (fun m -> if Monitor.next_due m <> Some at then exact := false) !self;
    wakeups := at :: !wakeups
  in
  let monitor =
    Monitor.create ~config ~self:0 ~capacity ~rng:(Rng.make ~seed)
      (logging_effects ~clock ~log ~set_wakeup)
  in
  self := Some monitor;
  { monitor; clock; log; wakeups; exact }

let rec fake_run_until f upto =
  match List.sort Float.compare !(f.wakeups) with
  | at :: rest when at <= upto ->
      f.wakeups := rest;
      f.clock := at;
      Monitor.on_wakeup f.monitor ~now:at;
      fake_run_until f upto
  | _ -> ()

type step =
  | Set_peers of int list
  | Advance of float  (** move the clock forward by this many seconds *)
  | Advance_to_due  (** move the clock to the reference's next timer *)
  | Reply of { port : int; kind : [ `Right | `Stale | `Dup ] }
  | Force of { port : int; up : bool }

let pp_step ppf = function
  | Set_peers ps ->
      Format.fprintf ppf "set_peers[%s]" (String.concat ";" (List.map string_of_int ps))
  | Advance dt -> Format.fprintf ppf "advance(%g)" dt
  | Advance_to_due -> Format.pp_print_string ppf "advance_to_due"
  | Reply { port; kind } ->
      Format.fprintf ppf "reply(%d, %s)" port
        (match kind with `Right -> "right" | `Stale -> "stale" | `Dup -> "dup")
  | Force { port; up } -> Format.fprintf ppf "force(%d, %b)" port up

let capacity = 6

(* Probe timeouts equal to the rapid interval make a port's timeout and
   its next rapid probe fall due at the same instant. *)
let tie_config =
  {
    Config.quorum_default with
    Config.probe_interval_s = 10.;
    probes_for_failure = 3;
    probe_timeout_s = 2.;
    rapid_probe_interval_s = 2.;
  }

let plain_config =
  {
    Config.quorum_default with
    Config.probe_interval_s = 10.;
    probes_for_failure = 3;
    probe_timeout_s = 1.5;
    rapid_probe_interval_s = 2.5;
  }

let gen_case =
  QCheck.Gen.(
    let port = int_range 1 (capacity - 1) in
    let step =
      frequency
        [
          (2, map (fun ps -> Set_peers (List.sort_uniq Int.compare ps)) (list_size (int_range 0 5) port));
          (3, map (fun k -> Advance (0.5 *. float_of_int k)) (int_range 1 12));
          (6, return Advance_to_due);
          ( 5,
            map2
              (fun port k ->
                Reply { port; kind = (match k with 0 -> `Stale | 1 -> `Dup | _ -> `Right) })
              port (int_range 0 4) );
          (1, map2 (fun port up -> Force { port; up }) port bool);
        ]
    in
    let* tie = bool in
    let* seed = int_range 0 1000 in
    let* peers = list_size (int_range 1 5) port in
    let* steps = list_size (int_range 1 80) step in
    return (tie, seed, Set_peers (List.sort_uniq Int.compare peers) :: steps))

let print_case (tie, seed, steps) =
  Format.asprintf "tie=%b seed=%d@.%a" tie seed
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "@.") pp_step)
    steps

(* The seq of the last probe logged to [port], if any. *)
let last_seq log port =
  List.find_map (function Sent (_, dst, seq) when dst = port -> Some seq | _ -> None) log

(* Besides agreeing with the reference after every step, the monitor
   never has more than 8 wakeups armed and unfired, and arms each one at
   the earliest due time of the moment. *)
let equivalent (tie, seed, steps) =
  let config = if tie then tie_config else plain_config in
  let f = fake_monitor ~config ~capacity ~seed in
  let rclock = ref 0. and rlog = ref [] in
  let r =
    Reference.create ~config ~self:0 ~capacity ~rng:(Rng.make ~seed)
      (logging_effects ~clock:rclock ~log:rlog ~set_wakeup:(fun ~at:_ -> ()))
  in
  let now = ref 0. in
  let same_state () =
    List.for_all
      (fun port ->
        Monitor.alive f.monitor port = Reference.alive r port
        && Monitor.latency_ms f.monitor port = Reference.latency_ms r port
        && Monitor.loss f.monitor port = Reference.loss r port
        && Entry.equal (Monitor.entry_for f.monitor port) (Reference.entry_for r port))
      (List.init (capacity - 1) succ)
    && Monitor.concurrent_failures f.monitor = Reference.concurrent_failures r
    && Monitor.peers f.monitor = Reference.peers r
  in
  let advance_to t =
    now := t;
    Reference.run_until r ~clock:rclock t;
    fake_run_until f t;
    f.clock := t;
    rclock := t
  in
  let apply = function
    | Set_peers ports ->
        Reference.set_peers r ~now:!now ports;
        Monitor.set_peers f.monitor ~now:!now ports
    | Advance dt -> advance_to (!now +. dt)
    | Advance_to_due -> (
        match Reference.next_key r with Some key -> advance_to key | None -> ())
    | Reply { port; kind } -> (
        match last_seq !rlog port with
        | None -> ()
        | Some seq ->
            let reply seq =
              Reference.handle_reply r ~now:!now ~src:port ~seq;
              Monitor.handle_reply f.monitor ~now:!now ~src:port ~seq
            in
            (match kind with
            | `Right -> reply seq
            | `Stale -> reply (seq - 1)
            | `Dup ->
                reply seq;
                reply seq))
    | Force { port; up } ->
        Reference.force_status r port ~up;
        Monitor.force_status f.monitor port ~up
  in
  List.for_all
    (fun step ->
      apply step;
      if not (!rlog = !(f.log) && same_state ()) then
        QCheck.Test.fail_reportf "after %a:@.reference %a@.monitor   %a" pp_step step
          events (List.rev !rlog) events (List.rev !(f.log));
      if not (!(f.exact) && List.length !(f.wakeups) <= 8) then
        QCheck.Test.fail_reportf "after %a: wakeups armed at %s" pp_step step
          (String.concat ", " (List.map string_of_float !(f.wakeups)));
      true)
    steps
  (* and the whole future agrees too *)
  && begin
    advance_to (!now +. 60.);
    !rlog = !(f.log) && same_state ()
  end

let equivalence_qcheck =
  QCheck.Test.make ~count:1000 ~name:"one wakeup = per-peer timers"
    (QCheck.make gen_case ~print:print_case)
    equivalent

(* --- bounds ----------------------------------------------------------------- *)

(* A full node's worth of peers: 255 activations in one view, then two
   probing periods with every third peer answering. *)
let test_wakeups_full_view () =
  let config = Config.quorum_default in
  let f = fake_monitor ~config ~capacity:256 ~seed:4 in
  Monitor.set_peers f.monitor ~now:0. (List.init 255 succ);
  let most = ref (List.length !(f.wakeups)) in
  for i = 1 to 600 do
    let now = 0.1 *. float_of_int i in
    fake_run_until f now;
    List.iter
      (fun port ->
        if port mod 3 = 0 then
          match last_seq !(f.log) port with
          | Some seq -> Monitor.handle_reply f.monitor ~now ~src:port ~seq
          | None -> ())
      (List.init 255 succ);
    most := max !most (List.length !(f.wakeups))
  done;
  check_bool "every wakeup at the earliest due time" true !(f.exact);
  check_bool (Printf.sprintf "at most 8 armed wakeups (saw %d)" !most) true (!most <= 8)

(* The monitor's state for a capacity-256 node probing 255 peers fits in
   12 words per port plus a constant. *)
let test_state_size () =
  let capacity = 256 in
  let m =
    Monitor.create ~config:Config.quorum_default ~self:0 ~capacity ~rng:(Rng.make ~seed:1)
      {
        Monitor.send_probe = (fun ~dst:_ ~seq:_ -> ());
        set_wakeup = (fun ~at:_ -> ());
        on_peer_death = ignore;
        on_peer_recovery = ignore;
      }
  in
  Monitor.set_peers m ~now:0. (List.init (capacity - 1) succ);
  for i = 1 to 100 do
    Monitor.on_wakeup m ~now:(float_of_int i)
  done;
  let words = Obj.reachable_words (Obj.repr m) in
  let bound = (12 * capacity) + 64 in
  check_bool (Printf.sprintf "%d words <= %d" words bound) true (words <= bound)

(* A static cluster without the failure model keeps an engine queue linear
   in n: one monitor wakeup, one router tick and the messages in flight
   per node, where per-peer probe timers made it quadratic. *)
let test_sim_queue_linear () =
  let n = 49 and seed = 2009 in
  let world = Internet.generate ~seed ~n () in
  let c =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:world.Internet.rtt_ms
      ~loss:world.Internet.loss ~seed ()
  in
  Cluster.start c;
  Cluster.run_until c 200.;
  let pending = (Cluster.engine_stats c).Apor_sim.Engine.max_pending in
  check_bool (Printf.sprintf "max pending %d <= 6n = %d" pending (6 * n)) true (pending <= 6 * n)

(* --- EWMA arithmetic ---------------------------------------------------------- *)

(* The first sample is adopted; later ones fold in as
   [alpha *. old +. (1. -. alpha) *. x]; losses count as 1, replies as 0. *)
let test_ewma () =
  let config = { plain_config with Config.ewma_alpha = 0.5 } in
  let f = fake_monitor ~config ~capacity:2 ~seed:3 in
  let check_float msg want got = Alcotest.(check (float 1e-9)) msg want got in
  Alcotest.(check (option (float 0.))) "no sample yet" None (Monitor.latency_ms f.monitor 1);
  check_float "no loss sample yet" 0. (Monitor.loss f.monitor 1);
  Monitor.set_peers f.monitor ~now:0. [ 1 ];
  let probe_and_reply rtt_s =
    let at = Option.get (Monitor.next_due f.monitor) in
    fake_run_until f at;
    match (!(f.log), rtt_s) with
    | Sent (sent, 1, seq) :: _, Some rtt_s ->
        Monitor.handle_reply f.monitor ~now:(sent +. rtt_s) ~src:1 ~seq
    | Sent _ :: _, None -> ()
    | _ -> Alcotest.fail "no probe sent"
  in
  probe_and_reply (Some 0.010);
  check_float "first latency adopted" 10. (Option.get (Monitor.latency_ms f.monitor 1));
  probe_and_reply (Some 0.020);
  check_float "latency blended" 15. (Option.get (Monitor.latency_ms f.monitor 1));
  check_float "two replies, no loss" 0. (Monitor.loss f.monitor 1);
  probe_and_reply None;
  (* the timeout of the unanswered probe *)
  fake_run_until f (Option.get (Monitor.next_due f.monitor));
  check_float "one loss blended" 0.5 (Monitor.loss f.monitor 1);
  check_float "latency kept" 15. (Option.get (Monitor.latency_ms f.monitor 1));
  check_bool "alpha 1 rejected" true
    (Result.is_error (Config.validate { config with Config.ewma_alpha = 1. }))

(* --- the runtime refuses timers it cannot honour -------------------------- *)

let test_runtime_rejects_bad_at () =
  let core =
    Node_core.create ~config:Config.quorum_default ~port:0 ~capacity:4
      ~rng:(Rng.make ~seed:1) ()
  in
  let clock = ref 10. in
  let rt =
    Runtime.create ~core
      ~now:(fun () -> !clock)
      ~send:(fun ~dst_port:_ _ -> ())
      ~schedule:(fun ~at:_ _ -> ())
      ()
  in
  let bad = Invalid_argument "Runtime: timer set at a NaN or past time" in
  Alcotest.check_raises "past" bad (fun () ->
      Runtime.apply rt ~now:10. (Node_core.Set_timer { timer = Node_core.Router_tick; at = 9.5 }));
  Alcotest.check_raises "nan" bad (fun () ->
      Runtime.apply rt ~now:10.
        (Node_core.Set_timer { timer = Node_core.Router_tick; at = Float.nan }));
  (* a clock that reads NaN makes every timer of the turn NaN *)
  clock := Float.nan;
  Alcotest.check_raises "nan clock" bad (fun () -> Runtime.dispatch rt Node_core.Start);
  Runtime.apply rt ~now:10. (Node_core.Set_timer { timer = Node_core.Router_tick; at = 10. })

let () =
  Alcotest.run "apor_monitor"
    [
      ("equivalence", [ QCheck_alcotest.to_alcotest equivalence_qcheck ]);
      ( "bounds",
        [
          Alcotest.test_case "wakeups for a full view" `Quick test_wakeups_full_view;
          Alcotest.test_case "state words per port" `Quick test_state_size;
          Alcotest.test_case "sim queue linear in n" `Quick test_sim_queue_linear;
        ] );
      ("ewma", [ Alcotest.test_case "samples fold in" `Quick test_ewma ]);
      ("runtime", [ Alcotest.test_case "rejects NaN or past at" `Quick test_runtime_rejects_bad_at ]);
    ]
