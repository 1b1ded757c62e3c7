let timeout_s = 5.

type host = {
  now : unit -> float;
  schedule_at : float -> (unit -> unit) -> unit;
  send : flow:int -> now:float -> int;
  forget : int -> unit;
}

type t = {
  host : host;
  think_s : float;
  outstanding : int array; (* datagram id, or -1 while the flow thinks *)
  due : float array; (* the outstanding datagram's sent_at + timeout_s *)
  armed : bool array; (* a timer is pending for the flow *)
  mutable stopped : bool;
}

let create host ~window ~think_s =
  {
    host;
    think_s;
    outstanding = Array.make window (-1);
    due = Array.make window 0.;
    armed = Array.make window false;
    stopped = false;
  }

(* The decisions.  Each reads and updates one flow's three fields; the
   loop below carries them out on the host. *)

(* [f] sent [id] at [now]: [Some due] when no timer is pending and one
   must be armed at [due]; a pending timer re-arms itself on firing. *)
let on_send t f ~id ~now =
  let due = now +. timeout_s in
  t.outstanding.(f) <- id;
  t.due.(f) <- due;
  if t.armed.(f) then None
  else begin
    t.armed.(f) <- true;
    Some due
  end

let on_delivery t f ~id =
  let mine = t.outstanding.(f) = id in
  if mine then t.outstanding.(f) <- -1;
  mine

type check = Lapse | Rearm of float | Time_out of int

let on_check t f ~now =
  let id = t.outstanding.(f) in
  if id < 0 then begin
    t.armed.(f) <- false;
    Lapse
  end
  else if now >= t.due.(f) then begin
    t.outstanding.(f) <- -1;
    t.armed.(f) <- false;
    Time_out id
  end
  else Rearm t.due.(f)

let rec step t f =
  if not t.stopped then begin
    let now = t.host.now () in
    let id = t.host.send ~flow:f ~now in
    match on_send t f ~id ~now with Some due -> arm t f due | None -> ()
  end

and arm t f due = t.host.schedule_at due (fun () -> fire t f)

and fire t f =
  match on_check t f ~now:(t.host.now ()) with
  | Lapse -> ()
  | Rearm due -> arm t f due
  | Time_out id ->
      (* lost: the window credit never arrives; restart the flow *)
      t.host.forget id;
      step t f

let start t ~rate_pps =
  let now = t.host.now () in
  for f = 0 to Array.length t.outstanding - 1 do
    t.host.schedule_at (now +. (float_of_int f /. rate_pps)) (fun () -> step t f)
  done

let delivered t ~flow ~id =
  if on_delivery t flow ~id && not t.stopped then
    t.host.schedule_at (t.host.now () +. t.think_s) (fun () -> step t flow)

let stop t = t.stopped <- true
