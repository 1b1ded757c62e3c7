type t = {
  core : Node_core.t;
  now : unit -> float;
  send : dst_port:int -> Message.t -> unit;
  schedule : at:float -> (unit -> unit) -> unit;
  on_recommend : (server_port:int -> dst_port:int -> hop_port:int -> unit) option;
  trace : (Apor_trace.Event.t -> unit) option;
  mutable tap : (float -> Node_core.input -> Node_core.output list -> unit) option;
}

let create ~core ~now ~send ~schedule ?on_recommend ?trace () =
  { core; now; send; schedule; on_recommend; trace; tap = None }

let core t = t.core
let set_tap t f = t.tap <- f

let rec dispatch t input =
  let now = t.now () in
  let outputs = Node_core.handle t.core ~now input in
  (match t.tap with Some f -> f now input outputs | None -> ());
  List.iter (apply t ~now) outputs

and apply t ~now (o : Node_core.output) =
  match o with
  | Node_core.Send { dst_port; msg } -> t.send ~dst_port msg
  | Node_core.Set_timer { timer; at } ->
      if Float.is_nan at || at < now then invalid_arg "Runtime: timer set at a NaN or past time";
      t.schedule ~at (fun () -> dispatch t (Node_core.Tick timer))
  | Node_core.Recommend { server_port; dst_port; hop_port } -> (
      match t.on_recommend with
      | Some f -> f ~server_port ~dst_port ~hop_port
      | None -> ())
  | Node_core.Trace ev -> ( match t.trace with Some emit -> emit ev | None -> ())
