(** Overlay wire messages and their byte accounting.

    Sizes follow Section 5's compact representation via
    {!Apor_linkstate.Overhead}; the simulator charges [size_bytes] to both
    endpoints, which is what makes the measured bandwidth comparable to the
    paper's closed-form expressions. *)

open Apor_util
open Apor_linkstate

type dgram = {
  id : int;
  origin : Nodeid.t;
  dst : Nodeid.t;
  hops : int;  (** overlay forwards so far (0 at the origin) *)
  sent_at_us : int;  (** origination time, microseconds, 48-bit *)
  payload_len : int;  (** application payload length in bytes *)
}
(** A data-plane user datagram.  [lib/dataplane]'s [Packet.t] is this
    record, so the simulator carries the packet the forwarder builds
    without copying it. *)

type t =
  | Probe of { seq : int }
  | Probe_reply of { seq : int }
  | Link_state of { view : int; epoch : int; snapshot : Snapshot.t }
      (** Round one, full form.  [view] is the membership version the
          sender's grid was built from; receivers ignore announcements from
          other views.  [epoch] counts the sender's announcements within
          the view and anchors subsequent deltas. *)
  | Link_state_delta of { view : int; delta : Wire.Delta.t }
      (** Round one, delta form: only the entries that changed since the
          sender's previous announcement to this receiver.  Applies on top
          of the stored row at [delta.epoch - 1]; any other stored epoch is
          a gap and triggers an [Ls_resync]. *)
  | Ls_resync of { view : int; owner : Nodeid.t }
      (** Receiver-to-owner: "I cannot apply your deltas — resend a full
          snapshot."  Sent on a detected epoch gap. *)
  | Recommend of { view : int; entries : (Nodeid.t * Nodeid.t) list }
      (** Round two: [(destination, best hop)] pairs. *)
  | Join of { port : int }
      (** Membership: registration/refresh at the coordinator.  [port]
          is the joiner's overlay address (its network index). *)
  | Leave of { port : int }
  | View of { version : int; members : Nodeid.t list }
      (** Coordinator broadcast: the full member list, sorted. *)
  | Data of { id : int; origin : Nodeid.t; dst : Nodeid.t; ttl : int }
      (** An application packet riding the overlay: forwarded along best
          hops until it reaches [dst] or [ttl] runs out. *)
  | Relay of { origin : Nodeid.t; target : Nodeid.t; inner : t }
      (** Footnote 8 of the paper: a routing message sent through a
          temporary one-hop intermediary when the direct link to a
          rendezvous server/client has failed.  The intermediary forwards
          [inner] to [target]; the receiver processes it as if it came
          from [origin]. *)
  | Dgram of dgram
      (** A data-plane user datagram ([lib/dataplane]).  Unlike [Data] —
          the legacy availability probe forwarded inside the node core —
          [Dgram] is intercepted at the transport boundary by the
          data-plane forwarder and never enters the protocol state
          machine; the core only models its byte cost. *)
  | Member of Apor_membership.Wire.t
      (** Decentralized membership ([lib/membership]): join requests and
          acks, quorum view writes, deltas and epoch digests.  [Join],
          [Leave] and [View] above remain the centralized-coordinator
          baseline ([Config.centralized_membership]). *)

val data_payload_bytes : int
(** Synthetic application payload size (64 bytes — a VoIP-frame-sized
    packet). *)

val dgram_header_bytes : int
(** Modeled wire-header cost of a [Dgram], matching the real data-plane
    packet header ({!section:lib/dataplane} [Packet.header_bytes]): the
    simulator charges [dgram_header_bytes + payload_len] per datagram. *)

val size_bytes : t -> int

val cls : t -> Msgclass.t
(** Traffic class for bandwidth accounting: probes vs routing vs
    membership, so the benches can report "routing traffic" exactly as the
    paper does.  {!Apor_sim.Traffic.cls} is a re-export of this type. *)

val equal : t -> t -> bool
(** Structural, with {!Apor_linkstate.Snapshot.equal} for snapshots. *)

val encode : t -> bytes
(** Binary form for real transports (the UDP runtime): one tag byte plus
    big-endian fixed-width fields, reusing {!Apor_linkstate.Wire} for
    link-state entries, deltas and recommendations.  Encoding quantizes
    snapshot entries exactly as the simulated network does.
    @raise Invalid_argument when a field exceeds its wire width
    (ports/ids 16 bits, views/epochs/seqs 32 bits). *)

val decode : bytes -> (t, string) result
(** Total inverse of {!encode} over well-formed input: truncated input,
    unknown tags and trailing bytes yield [Error], never an exception. *)

val pp : Format.formatter -> t -> unit
