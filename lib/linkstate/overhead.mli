(** Per-message byte accounting.

    The paper's closed-form bandwidth expressions (Section 6.1) imply a
    fixed per-packet overhead of 46 bytes — IP + UDP headers plus the
    prototype's application header — on top of the payload sizes of
    Section 5.  Keeping the accounting in one place guarantees the
    simulator, the protocol state machines and the analytical model all
    agree on message sizes. *)

val header_bytes : int
(** 46. *)

val probe_bytes : int
(** Probes and probe replies carry no payload: [header_bytes]. *)

val link_state_bytes : n:int -> int
(** Round-one announcement, full form: [header_bytes + 3n]. *)

val link_state_delta_bytes : changes:int -> int
(** Round-one announcement, delta form ({!Wire.Delta}):
    [header_bytes + 6 + 5 * changes].  Cheaper than the full form exactly
    when fewer than [(3n - 6) / 5] entries changed. *)

val resync_request_bytes : int
(** A receiver's "resend the full form" request after an epoch gap —
    a link-state snapshot or a recommendation batch: header plus the
    2-byte id of the node asked. *)

val multihop_state_bytes : n:int -> int
(** Multi-hop variant: the announcement also carries the 2-byte [Sec]
    pointer per destination, [header_bytes + 5n]. *)

val asymmetric_link_state_bytes : n:int -> int
(** Asymmetric-cost variant (the paper's footnote 2): both directions'
    latencies plus liveness, [header_bytes + 5n]. *)

val recommendation_message_bytes : entries:int -> int
(** Round-two recommendations: [header_bytes + 4 * entries]. *)

val recommendation_delta_bytes : changes:int -> int
(** Round-two recommendations, delta form ({!Rec_batch}): epoch and base
    epoch (4 bytes each) plus 4 bytes per changed pair,
    [header_bytes + 8 + 4 * changes].  Cheaper than the full form exactly
    when fewer than [entries - 2] pairs changed. *)

val membership_view_bytes : n:int -> int
(** Coordinator view push: version (4) plus a 2-byte id per member. *)

val membership_request_bytes : int
(** Join/leave/refresh requests: header only. *)
