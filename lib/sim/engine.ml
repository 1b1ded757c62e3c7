open Apor_util

type tap = {
  on_send : cls:Traffic.cls -> src:int -> dst:int -> bytes:int -> unit;
  on_deliver : cls:Traffic.cls -> src:int -> dst:int -> bytes:int -> unit;
  on_drop : cls:Traffic.cls -> src:int -> dst:int -> bytes:int -> unit;
}

(* Message deliveries — the bulk of the event population — carry their
   payload inline instead of capturing it in a closure; only node timers
   stay generic. *)
type 'msg event =
  | Deliver of { cls : Traffic.cls; src : int; dst : int; bytes : int; msg : 'msg }
  | Timer of (unit -> unit)

type stats = {
  events : int;
  sends : int;
  delivers : int;
  drops : int;
  max_pending : int;
}

type 'msg t = {
  network : Network.t;
  traffic : Traffic.t;
  queue : 'msg event Heap.t;
  mutable clock : float;
  mutable handler : (dst:int -> src:int -> 'msg -> unit) option;
  mutable tap : tap option;
  mutable n_events : int;
  mutable n_sends : int;
  mutable n_delivers : int;
  mutable n_drops : int;
  mutable max_pending : int;
}

let create ~network () =
  {
    network;
    traffic = Traffic.create ~n:(Network.size network);
    queue = Heap.create ();
    clock = 0.;
    handler = None;
    tap = None;
    n_events = 0;
    n_sends = 0;
    n_delivers = 0;
    n_drops = 0;
    max_pending = 0;
  }

let network t = t.network
let traffic t = t.traffic
let now t = t.clock
let set_handler t f = t.handler <- Some f
let set_tap t tap = t.tap <- tap

let pending t = Heap.length t.queue

(* Per event: its three heap slots (key, sequence number, value), then a
   delivery's inline record and all its message reaches, or a timer's
   constructor and closure block. *)
let queue_words t =
  let words acc = function
    | Deliver { msg; _ } -> acc + 3 + 6 + Obj.reachable_words (Obj.repr msg)
    | Timer f -> acc + 3 + 2 + Obj.size (Obj.repr f) + 1
  in
  Heap.fold words 0 t.queue

let stats t =
  {
    events = t.n_events;
    sends = t.n_sends;
    delivers = t.n_delivers;
    drops = t.n_drops;
    max_pending = t.max_pending;
  }

let q_push t ~key ev =
  Heap.push t.queue ~key ev;
  let p = pending t in
  if p > t.max_pending then t.max_pending <- p

let schedule t ~delay f =
  if Float.is_nan delay || delay < 0. then invalid_arg "Engine.schedule: bad delay";
  q_push t ~key:(t.clock +. delay) (Timer f)

let schedule_at t ~time f = q_push t ~key:(Float.max time t.clock) (Timer f)

let deliver t ~dst ~src msg =
  match t.handler with
  | Some f -> f ~dst ~src msg
  | None -> failwith "Engine: message delivered with no handler installed"

let send t ~cls ~src ~dst ~bytes msg =
  t.n_sends <- t.n_sends + 1;
  Traffic.record t.traffic cls ~node:src ~bytes ~now:t.clock;
  (match t.tap with Some tap -> tap.on_send ~cls ~src ~dst ~bytes | None -> ());
  match Network.sample_delivery t.network ~src ~dst with
  | None -> (
      t.n_drops <- t.n_drops + 1;
      match t.tap with Some tap -> tap.on_drop ~cls ~src ~dst ~bytes | None -> ())
  | Some delay -> q_push t ~key:(t.clock +. delay) (Deliver { cls; src; dst; bytes; msg })

let exec t = function
  | Timer f -> f ()
  | Deliver { cls; src; dst; bytes; msg } ->
      t.n_delivers <- t.n_delivers + 1;
      Traffic.record t.traffic cls ~node:dst ~bytes ~now:t.clock;
      (match t.tap with
      | Some tap -> tap.on_deliver ~cls ~src ~dst ~bytes
      | None -> ());
      deliver t ~dst ~src msg

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some (time, ev) ->
      t.clock <- Float.max t.clock time;
      t.n_events <- t.n_events + 1;
      exec t ev;
      true

let run_until t horizon =
  let rec go () =
    match Heap.peek t.queue with
    | Some (time, _) when time <= horizon ->
        ignore (step t);
        go ()
    | Some _ | None -> t.clock <- Float.max t.clock horizon
  in
  go ()
