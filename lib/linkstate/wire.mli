(** Compact wire codecs for routing messages (Section 5, "Table Exchange").

    - a link-state table entry is 3 bytes: 16-bit big-endian latency in
      milliseconds (0xFFFF marks a dead link) and one liveness/loss byte
      (0xFF dead, otherwise loss quantized in 1/254 steps);
    - a best-hop recommendation is 4 bytes: two 16-bit node ids
      (destination, one-hop intermediary; hop = destination encodes "take
      the direct path").

    Decoding is total over well-formed input and rejects truncated or
    trailing bytes with [Error], never an exception: link-state packets
    arrive from the (simulated) network. *)

open Apor_util

val entry_bytes : int
(** 3. *)

val recommendation_bytes : int
(** 4. *)

val encode_entries : Entry.t array -> bytes
(** [3 * n] bytes.  Entries are quantized by encoding. *)

val decode_entries : bytes -> (Entry.t array, string) result
(** Inverse of [encode_entries]; fails on lengths not divisible by 3. *)

val encode_recommendations : (Nodeid.t * Nodeid.t) list -> bytes
(** [(dst, hop)] pairs; [4 * length] bytes.
    @raise Invalid_argument for ids outside the 16-bit range. *)

val decode_recommendations : bytes -> ((Nodeid.t * Nodeid.t) list, string) result
(** Inverse of [encode_recommendations]; fails on lengths not divisible
    by 4. *)

val roundtrip_entry : Entry.t -> Entry.t
(** [decode (encode e)] for one entry — the quantization the network
    applies; equals {!Entry.quantize}. *)

(** Versioned delta announcements: after a first full snapshot, a node can
    push only the entries that changed since its previous announcement.

    Each announcement epoch [e] stands for the owner's snapshot at its
    [e]-th routing tick; a delta stamped [e] applies on top of the
    receiver's stored copy at epoch [e - 1].  A receiver holding any other
    epoch has detected a gap (a lost or reordered announcement) and must
    fall back to a full snapshot — see {!Table.apply_delta}.

    Payload: owner (2 bytes), epoch (4 bytes), then 5 bytes per change
    (2-byte id + the 3-byte entry encoding above). *)
module Delta : sig
  type t = { owner : int; epoch : int; changes : (int * Entry.t) list }

  val header_bytes : int
  (** 6: owner plus epoch. *)

  val change_bytes : int
  (** 5: a 16-bit id plus one 3-byte entry. *)

  val payload_bytes : t -> int
  (** [6 + 5 * changes]; a whole-cell delta of that size against the [3 * n]
      bytes of a snapshot decides delta vs full. *)

  val of_snapshots :
    metric:Metric.t -> epoch:int -> prev:Snapshot.t -> next:Snapshot.t -> t
  (** The delta advancing [prev] (epoch [epoch - 1]) by the cells of
      [next] that differ in a field [metric] reads ({!Snapshot.diff}).
      [apply] of it to [prev] is [next] under [Loss_sensitive], and the
      row announced at [epoch] under [Latency]: [next]'s latencies, with
      [prev]'s loss byte wherever the latency did not move.
      @raise Invalid_argument when the snapshots' owners or sizes differ. *)

  val apply : t -> Snapshot.t -> Snapshot.t
  (** Rebuild the full snapshot at [t.epoch] from the copy at the previous
      epoch.  Epoch bookkeeping is the caller's ({!Table.apply_delta}'s)
      job.
      @raise Invalid_argument on an owner mismatch or out-of-range id. *)

  val encode : t -> bytes
  (** @raise Invalid_argument for ids outside 16 bits or an epoch outside
      32 bits. *)

  val decode : bytes -> (t, string) result
  (** Inverse of [encode]; rejects lengths not of the form [6 + 5k]. *)
end
