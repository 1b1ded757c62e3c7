type t = Apor_overlay_core.Message.dgram = {
  id : int;
  origin : int;
  dst : int;
  hops : int;
  sent_at_us : int;
  payload_len : int;
}

let magic = 0xDA
let version = 1
let header_bytes = 19
let max_hops = 4

let u16_max = 0xFFFF
let u32_max = 0xFFFFFFFF
let u48_max = 0xFFFFFFFFFFFF

let size p = header_bytes + p.payload_len

let check_fields p =
  if p.id < 0 || p.id > u32_max then invalid_arg "Packet.encode: id out of range";
  if p.origin < 0 || p.origin > u16_max then
    invalid_arg "Packet.encode: origin out of range";
  if p.dst < 0 || p.dst > u16_max then invalid_arg "Packet.encode: dst out of range";
  if p.hops < 0 || p.hops > 0xFF then invalid_arg "Packet.encode: hops out of range";
  if p.sent_at_us < 0 || p.sent_at_us > u48_max then
    invalid_arg "Packet.encode: sent_at_us out of range";
  if p.payload_len < 0 || p.payload_len > u16_max then
    invalid_arg "Packet.encode: payload_len out of range"

(* The filler payload is a deterministic per-packet pattern, so corrupted
   batches fail header checks rather than silently truncating. *)
let filler p = (p.id + p.origin) land 0xFF

let encode_into p buf ~pos =
  check_fields p;
  if pos < 0 || pos + size p > Bytes.length buf then
    invalid_arg "Packet.encode_into: buffer too small";
  Bytes.set_uint8 buf pos magic;
  Bytes.set_uint8 buf (pos + 1) version;
  Bytes.set_int32_be buf (pos + 2) (Int32.of_int p.id);
  Bytes.set_uint16_be buf (pos + 6) p.origin;
  Bytes.set_uint16_be buf (pos + 8) p.dst;
  Bytes.set_uint8 buf (pos + 10) p.hops;
  Bytes.set_uint16_be buf (pos + 11) (p.sent_at_us lsr 32);
  Bytes.set_int32_be buf (pos + 13) (Int32.of_int (p.sent_at_us land u32_max));
  Bytes.set_uint16_be buf (pos + 17) p.payload_len;
  Bytes.fill buf (pos + header_bytes) p.payload_len (Char.chr (filler p))

let encode p =
  let b = Bytes.create (size p) in
  encode_into p b ~pos:0;
  b

let decode_from buf ~pos ~limit =
  let limit = min limit (Bytes.length buf) in
  if pos < 0 || pos + header_bytes > limit then Error "Packet.decode: short header"
  else if Bytes.get_uint8 buf pos <> magic then Error "Packet.decode: bad magic"
  else if Bytes.get_uint8 buf (pos + 1) <> version then Error "Packet.decode: bad version"
  else begin
    let id = Int32.to_int (Bytes.get_int32_be buf (pos + 2)) land u32_max in
    let origin = Bytes.get_uint16_be buf (pos + 6) in
    let dst = Bytes.get_uint16_be buf (pos + 8) in
    let hops = Bytes.get_uint8 buf (pos + 10) in
    let hi = Bytes.get_uint16_be buf (pos + 11) in
    let lo = Int32.to_int (Bytes.get_int32_be buf (pos + 13)) land u32_max in
    let payload_len = Bytes.get_uint16_be buf (pos + 17) in
    if pos + header_bytes + payload_len > limit then Error "Packet.decode: truncated payload"
    else
      Ok
        ( { id; origin; dst; hops; sent_at_us = (hi lsl 32) lor lo; payload_len },
          pos + header_bytes + payload_len )
  end

let decode buf =
  match decode_from buf ~pos:0 ~limit:(Bytes.length buf) with
  | Ok (p, next) when next = Bytes.length buf -> Ok p
  | Ok _ -> Error "Packet.decode: trailing bytes"
  | Error _ as e -> e

let to_dgram p = Apor_overlay_core.Message.Dgram p

let of_dgram = function Apor_overlay_core.Message.Dgram p -> Some p | _ -> None

let equal a b =
  a.id = b.id && a.origin = b.origin && a.dst = b.dst && a.hops = b.hops
  && a.sent_at_us = b.sent_at_us
  && a.payload_len = b.payload_len

let pp ppf p =
  Format.fprintf ppf "pkt#%d(%d->%d, hops=%d, %dB)" p.id p.origin p.dst p.hops
    p.payload_len
