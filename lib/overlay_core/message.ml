open Apor_util
open Apor_linkstate

type dgram = {
  id : int;
  origin : Nodeid.t;
  dst : Nodeid.t;
  hops : int;
  sent_at_us : int;
  payload_len : int;
}

type t =
  | Probe of { seq : int }
  | Probe_reply of { seq : int }
  | Link_state of { view : int; epoch : int; snapshot : Snapshot.t }
  | Link_state_delta of { view : int; delta : Wire.Delta.t }
  | Ls_resync of { view : int; owner : Nodeid.t }
  | Recommend of { view : int; epoch : int; entries : (Nodeid.t * Nodeid.t) list }
  | Recommend_delta of {
      view : int;
      epoch : int;
      base : int;
      changed : (Nodeid.t * Nodeid.t) list;
    }
  | Rec_resync of { view : int; server : Nodeid.t }
  | Join of { port : int }
  | Leave of { port : int }
  | View of { version : int; members : Nodeid.t list }
  | Relay of { origin : Nodeid.t; target : Nodeid.t; inner : t }
  | Dgram of dgram
  | Member of Apor_membership.Wire.t

let dgram_header_bytes = 19

let rec size_bytes = function
  | Probe _ | Probe_reply _ -> Overhead.probe_bytes
  | Link_state { snapshot; _ } -> Overhead.header_bytes + Snapshot.payload_bytes snapshot
  | Link_state_delta { delta; _ } ->
      Overhead.link_state_delta_bytes ~changes:(List.length delta.Wire.Delta.changes)
  | Ls_resync _ | Rec_resync _ -> Overhead.resync_request_bytes
  | Recommend { entries; _ } ->
      Overhead.recommendation_message_bytes ~entries:(List.length entries)
  | Recommend_delta { changed; _ } ->
      Overhead.recommendation_delta_bytes ~changes:(List.length changed)
  | Join _ | Leave _ -> Overhead.membership_request_bytes
  | View { members; _ } -> Overhead.membership_view_bytes ~n:(List.length members)
  | Relay { inner; _ } -> Overhead.header_bytes + size_bytes inner
  | Dgram d -> dgram_header_bytes + d.payload_len
  | Member w -> 1 + Apor_membership.Wire.size_bytes w

let rec cls = function
  | Probe _ | Probe_reply _ -> Msgclass.Probe
  | Link_state _ | Link_state_delta _ | Ls_resync _ | Recommend _ | Recommend_delta _
  | Rec_resync _ ->
      Msgclass.Routing
  | Join _ | Leave _ | View _ | Member _ -> Msgclass.Membership
  | Dgram _ -> Msgclass.Data
  | Relay { inner; _ } -> cls inner

let rec equal a b =
  match (a, b) with
  | Probe { seq = s1 }, Probe { seq = s2 } -> s1 = s2
  | Probe_reply { seq = s1 }, Probe_reply { seq = s2 } -> s1 = s2
  | ( Link_state { view = v1; epoch = e1; snapshot = s1 },
      Link_state { view = v2; epoch = e2; snapshot = s2 } ) ->
      v1 = v2 && e1 = e2 && Snapshot.owner s1 = Snapshot.owner s2 && Snapshot.equal s1 s2
  | ( Link_state_delta { view = v1; delta = d1 },
      Link_state_delta { view = v2; delta = d2 } ) ->
      v1 = v2
      && d1.Wire.Delta.owner = d2.Wire.Delta.owner
      && d1.Wire.Delta.epoch = d2.Wire.Delta.epoch
      && List.length d1.Wire.Delta.changes = List.length d2.Wire.Delta.changes
      && List.for_all2
           (fun (i1, e1) (i2, e2) -> i1 = i2 && Entry.equal e1 e2)
           d1.Wire.Delta.changes d2.Wire.Delta.changes
  | Ls_resync { view = v1; owner = o1 }, Ls_resync { view = v2; owner = o2 } ->
      v1 = v2 && o1 = o2
  | ( Recommend { view = v1; epoch = p1; entries = e1 },
      Recommend { view = v2; epoch = p2; entries = e2 } ) ->
      v1 = v2 && p1 = p2 && e1 = e2
  | ( Recommend_delta { view = v1; epoch = p1; base = b1; changed = c1 },
      Recommend_delta { view = v2; epoch = p2; base = b2; changed = c2 } ) ->
      v1 = v2 && p1 = p2 && b1 = b2 && c1 = c2
  | Rec_resync { view = v1; server = s1 }, Rec_resync { view = v2; server = s2 } ->
      v1 = v2 && s1 = s2
  | Join { port = p1 }, Join { port = p2 } -> p1 = p2
  | Leave { port = p1 }, Leave { port = p2 } -> p1 = p2
  | View { version = v1; members = m1 }, View { version = v2; members = m2 } ->
      v1 = v2 && m1 = m2
  | ( Relay { origin = o1; target = t1; inner = i1 },
      Relay { origin = o2; target = t2; inner = i2 } ) ->
      o1 = o2 && t1 = t2 && equal i1 i2
  | Dgram a, Dgram b -> a = b
  | Member w1, Member w2 -> Apor_membership.Wire.equal w1 w2
  | ( ( Probe _ | Probe_reply _ | Link_state _ | Link_state_delta _ | Ls_resync _
      | Recommend _ | Recommend_delta _ | Rec_resync _ | Join _ | Leave _ | View _
      | Relay _ | Dgram _ | Member _ ),
      _ ) ->
      false

(* --- binary codec ------------------------------------------------------- *)

(* One tag byte, then big-endian fixed-width fields: ports/ids/owners are
   16 bits, views/epochs/seqs/packet ids 32 bits (unsigned), hop counts 8
   bits.  Variable-length parts carry an explicit 16-bit count or length
   so the decoder never trusts the frame boundary alone.  A snapshot is
   stored in the wire's 3-byte entry layout already, so a [Link_state]
   payload is a blit of {!Snapshot.wire_bytes} and decodes with
   {!Snapshot.of_wire}. *)

let tag_probe = 0
let tag_probe_reply = 1
let tag_link_state = 2
let tag_link_state_delta = 3
let tag_ls_resync = 4
let tag_recommend = 5
let tag_join = 6
let tag_leave = 7
let tag_view = 8
(* 9 was the retired hop-by-hop data packet; it stays unassigned *)
let tag_relay = 10
let tag_dgram = 11
let tag_member = 12
let tag_recommend_delta = 13
let tag_rec_resync = 14

let u16_max = 0xFFFF
let u32_max = 0xFFFFFFFF

let put_u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Message.encode: u8 out of range";
  Buffer.add_uint8 b v

let put_u16 b v =
  if v < 0 || v > u16_max then invalid_arg "Message.encode: u16 out of range";
  Buffer.add_uint16_be b v

let put_u32 b v =
  if v < 0 || v > u32_max then invalid_arg "Message.encode: u32 out of range";
  Buffer.add_int32_be b (Int32.of_int v)

let rec encode_into b = function
  | Probe { seq } ->
      put_u8 b tag_probe;
      put_u32 b seq
  | Probe_reply { seq } ->
      put_u8 b tag_probe_reply;
      put_u32 b seq
  | Link_state { view; epoch; snapshot } ->
      put_u8 b tag_link_state;
      put_u32 b view;
      put_u32 b epoch;
      put_u16 b (Snapshot.owner snapshot);
      put_u16 b (Snapshot.size snapshot);
      Buffer.add_bytes b (Snapshot.wire_bytes snapshot)
  | Link_state_delta { view; delta } ->
      put_u8 b tag_link_state_delta;
      put_u32 b view;
      let payload = Wire.Delta.encode delta in
      put_u16 b (Bytes.length payload);
      Buffer.add_bytes b payload
  | Ls_resync { view; owner } ->
      put_u8 b tag_ls_resync;
      put_u32 b view;
      put_u16 b owner
  | Recommend { view; epoch; entries } ->
      put_u8 b tag_recommend;
      put_u32 b view;
      put_u32 b epoch;
      put_u16 b (List.length entries);
      Buffer.add_bytes b (Wire.encode_recommendations entries)
  | Recommend_delta { view; epoch; base; changed } ->
      put_u8 b tag_recommend_delta;
      put_u32 b view;
      put_u32 b epoch;
      put_u32 b base;
      put_u16 b (List.length changed);
      (* a dropped destination's hop travels as 0xFFFF, so no real hop
         may take that value *)
      Buffer.add_bytes b
        (Wire.encode_recommendations
           (List.map
              (fun (dst, hop) ->
                if hop = Rec_batch.dropped then (dst, u16_max)
                else if hop = u16_max then
                  invalid_arg "Message.encode: hop 0xFFFF marks a dropped destination"
                else (dst, hop))
              changed))
  | Rec_resync { view; server } ->
      put_u8 b tag_rec_resync;
      put_u32 b view;
      put_u16 b server
  | Join { port } ->
      put_u8 b tag_join;
      put_u16 b port
  | Leave { port } ->
      put_u8 b tag_leave;
      put_u16 b port
  | View { version; members } ->
      put_u8 b tag_view;
      put_u32 b version;
      put_u16 b (List.length members);
      List.iter (fun m -> put_u16 b m) members
  | Relay { origin; target; inner } ->
      put_u8 b tag_relay;
      put_u16 b origin;
      put_u16 b target;
      encode_into b inner
  | Dgram { id; origin; dst; hops; sent_at_us; payload_len } ->
      put_u8 b tag_dgram;
      put_u32 b id;
      put_u16 b origin;
      put_u16 b dst;
      put_u8 b hops;
      (* 48-bit microsecond timestamp: high 16 then low 32 *)
      put_u16 b (sent_at_us lsr 32);
      put_u32 b (sent_at_us land u32_max);
      put_u16 b payload_len
  | Member w ->
      put_u8 b tag_member;
      Buffer.add_bytes b (Apor_membership.Wire.encode w)

let encode msg =
  let b = Buffer.create 64 in
  encode_into b msg;
  Buffer.to_bytes b

exception Truncated

(* Cursor-style decoder: [pos] advances through [buf]; any read past the
   end raises [Truncated], converted to [Error] at the boundary. *)
let decode buf =
  let len = Bytes.length buf in
  let pos = ref 0 in
  let need k = if !pos + k > len then raise Truncated in
  let u8 () =
    need 1;
    let v = Bytes.get_uint8 buf !pos in
    incr pos;
    v
  in
  let u16 () =
    need 2;
    let v = Bytes.get_uint16_be buf !pos in
    pos := !pos + 2;
    v
  in
  let u32 () =
    need 4;
    let v = Int32.to_int (Bytes.get_int32_be buf !pos) land u32_max in
    pos := !pos + 4;
    v
  in
  let raw k =
    need k;
    let b = Bytes.sub buf !pos k in
    pos := !pos + k;
    b
  in
  let rec go () =
    match u8 () with
    | tag when tag = tag_probe -> Ok (Probe { seq = u32 () })
    | tag when tag = tag_probe_reply -> Ok (Probe_reply { seq = u32 () })
    | tag when tag = tag_link_state -> (
        let view = u32 () in
        let epoch = u32 () in
        let owner = u16 () in
        let n = u16 () in
        match Snapshot.of_wire ~owner (raw (n * Wire.entry_bytes)) with
        | Ok snapshot -> Ok (Link_state { view; epoch; snapshot })
        | Error e -> Error ("Message.decode: " ^ e))
    | tag when tag = tag_link_state_delta -> (
        let view = u32 () in
        let k = u16 () in
        match Wire.Delta.decode (raw k) with
        | Ok delta -> Ok (Link_state_delta { view; delta })
        | Error e -> Error e)
    | tag when tag = tag_ls_resync ->
        let view = u32 () in
        Ok (Ls_resync { view; owner = u16 () })
    | tag when tag = tag_recommend -> (
        let view = u32 () in
        let epoch = u32 () in
        let n = u16 () in
        match Wire.decode_recommendations (raw (n * Wire.recommendation_bytes)) with
        | Ok entries -> Ok (Recommend { view; epoch; entries })
        | Error e -> Error e)
    | tag when tag = tag_recommend_delta -> (
        let view = u32 () in
        let epoch = u32 () in
        let base = u32 () in
        let n = u16 () in
        match Wire.decode_recommendations (raw (n * Wire.recommendation_bytes)) with
        | Ok pairs ->
            let changed =
              List.map
                (fun (dst, hop) -> (dst, if hop = u16_max then Rec_batch.dropped else hop))
                pairs
            in
            Ok (Recommend_delta { view; epoch; base; changed })
        | Error e -> Error e)
    | tag when tag = tag_rec_resync ->
        let view = u32 () in
        Ok (Rec_resync { view; server = u16 () })
    | tag when tag = tag_join -> Ok (Join { port = u16 () })
    | tag when tag = tag_leave -> Ok (Leave { port = u16 () })
    | tag when tag = tag_view ->
        let version = u32 () in
        let n = u16 () in
        let members = List.init n (fun _ -> u16 ()) in
        Ok (View { version; members })
    | tag when tag = tag_relay -> (
        let origin = u16 () in
        let target = u16 () in
        match go () with
        | Ok inner -> Ok (Relay { origin; target; inner })
        | Error _ as e -> e)
    | tag when tag = tag_dgram ->
        let id = u32 () in
        let origin = u16 () in
        let dst = u16 () in
        let hops = u8 () in
        let hi = u16 () in
        let lo = u32 () in
        let payload_len = u16 () in
        Ok (Dgram { id; origin; dst; hops; sent_at_us = (hi lsl 32) lor lo; payload_len })
    | tag when tag = tag_member -> (
        (* the membership payload extends to the end of the frame; its own
           decoder enforces the trailing-bytes check *)
        match Apor_membership.Wire.decode (raw (len - !pos)) with
        | Ok w -> Ok (Member w)
        | Error e -> Error e)
    | tag -> Error (Printf.sprintf "Message.decode: unknown tag %d" tag)
  in
  match go () with
  | Ok msg when !pos = len -> Ok msg
  | Ok _ -> Error "Message.decode: trailing bytes"
  | Error _ as e -> e
  | exception Truncated -> Error "Message.decode: truncated"

let rec pp ppf = function
  | Probe { seq } -> Format.fprintf ppf "probe#%d" seq
  | Probe_reply { seq } -> Format.fprintf ppf "probe-reply#%d" seq
  | Link_state { view; epoch; snapshot } ->
      Format.fprintf ppf "link-state(view=%d, owner=%d, epoch=%d)" view
        (Snapshot.owner snapshot) epoch
  | Link_state_delta { view; delta } ->
      Format.fprintf ppf "link-state-delta(view=%d, owner=%d, epoch=%d, %d changes)" view
        delta.Wire.Delta.owner delta.Wire.Delta.epoch
        (List.length delta.Wire.Delta.changes)
  | Ls_resync { view; owner } ->
      Format.fprintf ppf "ls-resync(view=%d, owner=%d)" view owner
  | Recommend { view; epoch; entries } ->
      Format.fprintf ppf "recommend(view=%d, epoch=%d, %d entries)" view epoch
        (List.length entries)
  | Recommend_delta { view; epoch; base; changed } ->
      Format.fprintf ppf "recommend-delta(view=%d, epoch=%d, base=%d, %d changed)" view epoch
        base (List.length changed)
  | Rec_resync { view; server } ->
      Format.fprintf ppf "rec-resync(view=%d, server=%d)" view server
  | Join { port } -> Format.fprintf ppf "join(%d)" port
  | Leave { port } -> Format.fprintf ppf "leave(%d)" port
  | View { version; members } ->
      Format.fprintf ppf "view(v%d, %d members)" version (List.length members)
  | Relay { origin; target; inner } ->
      Format.fprintf ppf "relay(%d=>%d, %a)" origin target pp inner
  | Dgram { id; origin; dst; hops; payload_len; _ } ->
      Format.fprintf ppf "dgram#%d(%d->%d, hops=%d, %dB)" id origin dst hops payload_len
  | Member w -> Format.fprintf ppf "member(%a)" Apor_membership.Wire.pp w
