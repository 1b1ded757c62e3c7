open Apor_sim
module Core = Apor_overlay_core

let create ~engine ~core ?on_recommend ?trace () =
  let src = Core.Node_core.port core in
  Core.Runtime.create ~core
    ~now:(fun () -> Engine.now engine)
    ~send:(fun ~dst_port msg ->
      Engine.send engine ~cls:(Core.Message.cls msg) ~src ~dst:dst_port
        ~bytes:(Core.Message.size_bytes msg) msg)
    ~schedule:(fun ~at f -> Engine.schedule_at engine ~time:at f)
    ?on_recommend ?trace ()
