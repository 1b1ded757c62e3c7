open Apor_overlay_core

type t = { rt : Runtime.t; now : unit -> float }

let of_runtime ~now rt = { rt; now }

let core t = Runtime.core t.rt
let runtime t = t.rt
let port t = Node_core.port (core t)
let start t = Runtime.dispatch t.rt Node_core.Start
let leave t = Runtime.dispatch t.rt Node_core.Leave
let install_view t v = Runtime.dispatch t.rt (Node_core.Install_view v)

let handle_message t ~src_port msg =
  Runtime.dispatch t.rt (Node_core.Deliver { src_port; msg })

let current_view t = Node_core.current_view (core t)
let monitor t = Node_core.monitor (core t)
let quorum_router t = Node_core.quorum_router (core t)
let best_hop t ~dst_port = Node_core.best_hop (core t) ~now:(t.now ()) ~dst_port
let freshness t ~dst_port = Node_core.freshness (core t) ~now:(t.now ()) ~dst_port

let double_rendezvous_failure_count t =
  Node_core.double_rendezvous_failure_count (core t) ~now:(t.now ())
