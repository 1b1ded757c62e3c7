(** {!Driver} on the simulator ({!Host.of_cluster}): every transport hop
    is a normal engine send, so {!Apor_sim.Traffic} accounting and the
    byte-conservation invariant hold without special cases. *)

include Driver

let attach ~cluster = Driver.attach (Host.of_cluster cluster)
