open Apor_util
open Apor_linkstate

type effects = {
  send_probe : dst:int -> seq:int -> unit;
  set_wakeup : at:float -> unit;
  on_peer_death : int -> unit;
  on_peer_recovery : int -> unit;
}

(* Per-port flag bits, one byte per port. *)
let active_bit = 1
let alive_bit = 2

type t = {
  config : Config.t;
  self : int;
  rng : Rng.t;
  eff : effects;
  flags : Bytes.t;
  losses : int array;  (* consecutive lost probes *)
  seq : int array;  (* next probe seq; the outstanding one is [seq - 1] *)
  sent_at : float array;  (* send time of the outstanding probe *)
  latency : float array;  (* EWMA latency (ms); NaN before the first reply *)
  loss_est : float array;  (* EWMA loss; NaN before the first sample *)
  probe_at : float array;  (* next probe due time *)
  timeout_at : float array;  (* outstanding probe's timeout; infinity if none *)
  order : int array;  (* arm order of the send that set both due times *)
  heap : int array;  (* active ports, min-heap on (due, order) *)
  pos : int array;  (* index of each port in [heap]; -1 when absent *)
  mutable len : int;
  mutable arms : int;
  mutable armed : float array;  (* unfired wakeups, decreasing: the top is the earliest *)
  mutable n_armed : int;
}

let create ~config ~self ~capacity ~rng eff =
  if capacity < 1 then invalid_arg "Monitor.create: capacity must be positive";
  {
    config;
    self;
    rng;
    eff;
    flags = Bytes.make capacity (Char.chr alive_bit);
    losses = Array.make capacity 0;
    seq = Array.make capacity 0;
    sent_at = Array.make capacity 0.;
    latency = Array.make capacity Float.nan;
    loss_est = Array.make capacity Float.nan;
    probe_at = Array.make capacity infinity;
    timeout_at = Array.make capacity infinity;
    order = Array.make capacity 0;
    heap = Array.make capacity 0;
    pos = Array.make capacity (-1);
    len = 0;
    arms = 0;
    armed = Array.make 8 0.;
    n_armed = 0;
  }

let check t port =
  if port < 0 || port >= Array.length t.pos || port = t.self then
    invalid_arg "Monitor: bad peer port"

let flag t port bit = Char.code (Bytes.unsafe_get t.flags port) land bit <> 0

let set_flag t port bit on =
  let b = Char.code (Bytes.unsafe_get t.flags port) in
  Bytes.unsafe_set t.flags port
    (Char.unsafe_chr (if on then b lor bit else b land lnot bit))

let[@inline] ewma t e x =
  if Float.is_nan e then x
  else (t.config.ewma_alpha *. e) +. ((1. -. t.config.ewma_alpha) *. x)

(* --- the schedule: an indexed min-heap of active ports ------------------- *)

(* A port's key is its earlier due time, then the arm order.  Both due
   times of a port are set by the same send, which arms the timeout
   first, so within a port a tie goes to the timeout.  Inlined, so that
   no float is boxed. *)
let[@inline] due t p =
  let a = Array.unsafe_get t.timeout_at p and b = Array.unsafe_get t.probe_at p in
  if a <= b then a else b

let[@inline] before t p q =
  let kp = due t p and kq = due t q in
  kp < kq || (kp = kq && t.order.(p) < t.order.(q))

let place t i p =
  t.heap.(i) <- p;
  t.pos.(p) <- i

let rec sift_up t i p =
  if i = 0 then place t 0 p
  else
    let parent = (i - 1) / 2 in
    let q = t.heap.(parent) in
    if before t p q then begin
      place t i q;
      sift_up t parent p
    end
    else place t i p

let rec sift_down t i p =
  let l = (2 * i) + 1 in
  if l >= t.len then place t i p
  else
    let c = if l + 1 < t.len && before t t.heap.(l + 1) t.heap.(l) then l + 1 else l in
    let q = t.heap.(c) in
    if before t q p then begin
      place t i q;
      sift_down t c p
    end
    else place t i p

(* Re-seat [p] at index [i] after its key moved either way. *)
let reseat t i p =
  if i > 0 && before t p t.heap.((i - 1) / 2) then sift_up t i p else sift_down t i p

let heap_fix t p = reseat t t.pos.(p) p

let heap_add t p =
  t.len <- t.len + 1;
  sift_up t (t.len - 1) p

let heap_remove t p =
  let i = t.pos.(p) in
  t.pos.(p) <- -1;
  t.len <- t.len - 1;
  if i < t.len then reseat t i t.heap.(t.len)

(* Keep one armed wakeup at or before the earliest due time.  Wakeups are
   only ever armed below every unfired one, so [armed] stays sorted and
   its top is the earliest. *)
let rearm t =
  if t.len > 0 then begin
    let first = due t t.heap.(0) in
    if t.n_armed = 0 || first < t.armed.(t.n_armed - 1) then begin
      if t.n_armed = Array.length t.armed then begin
        let bigger = Array.make (2 * t.n_armed) 0. in
        Array.blit t.armed 0 bigger 0 t.n_armed;
        t.armed <- bigger
      end;
      t.armed.(t.n_armed) <- first;
      t.n_armed <- t.n_armed + 1;
      t.eff.set_wakeup ~at:first
    end
  end

(* --- probing -------------------------------------------------------------- *)

(* Send the next probe; arm its timeout and the next probe, in that order. *)
let send t ~now port =
  let seq = t.seq.(port) in
  t.seq.(port) <- seq + 1;
  t.sent_at.(port) <- now;
  t.eff.send_probe ~dst:port ~seq;
  let losses = t.losses.(port) in
  let next =
    if losses >= 1 && losses < t.config.probes_for_failure then t.config.rapid_probe_interval_s
    else t.config.probe_interval_s
  in
  t.timeout_at.(port) <- now +. t.config.probe_timeout_s;
  t.probe_at.(port) <- now +. next;
  t.order.(port) <- t.arms;
  t.arms <- t.arms + 1;
  heap_fix t port

let timeout t ~now port =
  t.timeout_at.(port) <- infinity;
  let losses = t.losses.(port) + 1 in
  t.losses.(port) <- losses;
  t.loss_est.(port) <- ewma t t.loss_est.(port) 1.;
  let alive = flag t port alive_bit and failed = losses >= t.config.probes_for_failure in
  (* Rapid failure detection: on the first loss, abandon the normal
     cadence and re-probe immediately at the rapid interval, so the
     remaining probes-for-failure losses fit within roughly one probing
     period.  The new send overwrites both due times. *)
  if alive && losses = 1 && not failed then send t ~now port
  else begin
    heap_fix t port;
    if alive && failed then begin
      set_flag t port alive_bit false;
      t.eff.on_peer_death port
    end
  end

let on_wakeup t ~now =
  while t.n_armed > 0 && t.armed.(t.n_armed - 1) <= now do
    t.n_armed <- t.n_armed - 1
  done;
  while t.len > 0 && due t t.heap.(0) <= now do
    let p = t.heap.(0) in
    if t.timeout_at.(p) <= t.probe_at.(p) then timeout t ~now p else send t ~now p
  done;
  rearm t

let activate t ~now port =
  set_flag t port active_bit true;
  t.losses.(port) <- 0;
  let phase = Rng.float t.rng t.config.probe_interval_s in
  t.probe_at.(port) <- now +. phase;
  t.timeout_at.(port) <- infinity;
  t.order.(port) <- t.arms;
  t.arms <- t.arms + 1;
  heap_add t port

let deactivate t port =
  set_flag t port active_bit false;
  heap_remove t port;
  t.probe_at.(port) <- infinity;
  t.timeout_at.(port) <- infinity

let set_peers t ~now ports =
  List.iter (fun port -> check t port) ports;
  let wanted = Bytes.make (Array.length t.pos) '\000' in
  List.iter (fun port -> Bytes.set wanted port '\001') ports;
  for port = 0 to Array.length t.pos - 1 do
    if port <> t.self then begin
      let want = Bytes.get wanted port <> '\000' and active = flag t port active_bit in
      if want && not active then activate t ~now port
      else if (not want) && active then deactivate t port
    end
  done;
  rearm t

let peers t =
  let acc = ref [] in
  for port = Array.length t.pos - 1 downto 0 do
    if flag t port active_bit then acc := port :: !acc
  done;
  !acc

let state_words t =
  let w x = Obj.reachable_words (Obj.repr x) in
  w t.flags + w t.losses + w t.seq + w t.sent_at + w t.latency + w t.loss_est + w t.probe_at
  + w t.timeout_at + w t.order + w t.heap + w t.pos + w t.armed

let next_due t = if t.len = 0 then None else Some (due t t.heap.(0))

let handle_reply t ~now ~src ~seq =
  check t src;
  if t.timeout_at.(src) < infinity && seq = t.seq.(src) - 1 then begin
    t.timeout_at.(src) <- infinity;
    heap_fix t src;
    let rtt_ms = (now -. t.sent_at.(src)) *. 1000. in
    t.latency.(src) <- ewma t t.latency.(src) rtt_ms;
    t.loss_est.(src) <- ewma t t.loss_est.(src) 0.;
    t.losses.(src) <- 0;
    if not (flag t src alive_bit) then begin
      set_flag t src alive_bit true;
      t.eff.on_peer_recovery src
    end
  end

(* An external liveness verdict (a transport-level error, an operator
   command) short-circuits the probe protocol's own detection. *)
let force_status t port ~up =
  check t port;
  let alive = flag t port alive_bit in
  if up && not alive then begin
    set_flag t port alive_bit true;
    t.losses.(port) <- 0;
    t.eff.on_peer_recovery port
  end
  else if (not up) && alive then begin
    set_flag t port alive_bit false;
    t.eff.on_peer_death port
  end

let alive t port =
  check t port;
  flag t port alive_bit

let latency_ms t port =
  check t port;
  let l = t.latency.(port) in
  if Float.is_nan l then None else Some l

let loss_value t port =
  let l = t.loss_est.(port) in
  if Float.is_nan l then 0. else l

let loss t port =
  check t port;
  loss_value t port

let entry_for t port =
  check t port;
  let l = t.latency.(port) in
  if (not (flag t port alive_bit)) || Float.is_nan l then Entry.unreachable
  else
    Entry.make ~latency_ms:l
      ~loss:(Float.max 0. (Float.min 1. (loss_value t port)))
      ~alive:true

let concurrent_failures t =
  let count = ref 0 in
  for port = 0 to Array.length t.pos - 1 do
    if flag t port active_bit && (not (flag t port alive_bit))
       && not (Float.is_nan t.latency.(port))
    then incr count
  done;
  !count
