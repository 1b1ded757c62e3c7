(** {!Driver} on the real transport ({!Host.of_udp}): datagrams ride
    {!Apor_deploy.Udp_runtime.send_data}'s batched zero-copy path. *)

include Driver

let attach ~udp = Driver.attach (Host.of_udp udp)
