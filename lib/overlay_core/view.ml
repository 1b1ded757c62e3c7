(* The view type lives in [lib/membership] so the decentralized
   membership core can own it without a dependency cycle.  This alias
   keeps the overlay-side name [Apor_overlay_core.View], which the
   benchmark worker (perfbench/worker, frozen) names. *)
include Apor_membership.View
