(** {!Driver} on the simulator ({!Host.of_cluster}), under the name the
    repository benchmark's worker (perfbench/worker/sim.ml) calls; new
    code calls [Driver.attach (Host.of_cluster c)] directly. *)

include Driver

let attach ~cluster = Driver.attach (Host.of_cluster cluster)
