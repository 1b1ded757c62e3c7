let entry_bytes = 3
let recommendation_bytes = 4

let dead_latency = 0xFFFF
let dead_loss = 0xFF

let put_u16 b off v =
  Bytes.set_uint8 b off ((v lsr 8) land 0xFF);
  Bytes.set_uint8 b (off + 1) (v land 0xFF)

let get_u16 b off = (Bytes.get_uint8 b off lsl 8) lor Bytes.get_uint8 b (off + 1)

let encode_entry b off (e : Entry.t) =
  if not e.alive then begin
    put_u16 b off dead_latency;
    Bytes.set_uint8 b (off + 2) dead_loss
  end
  else begin
    let latency = min Entry.max_latency_ms (int_of_float (Float.round e.latency_ms)) in
    let loss = min 254 (int_of_float (Float.round (e.loss *. 254.))) in
    put_u16 b off latency;
    Bytes.set_uint8 b (off + 2) loss
  end

let decode_entry b off =
  let latency = get_u16 b off in
  let loss = Bytes.get_uint8 b (off + 2) in
  if latency = dead_latency || loss = dead_loss then Entry.unreachable
  else
    Entry.make
      ~latency_ms:(float_of_int latency)
      ~loss:(float_of_int loss /. 254.)
      ~alive:true

let encode_entries entries =
  let b = Bytes.create (entry_bytes * Array.length entries) in
  Array.iteri (fun i e -> encode_entry b (i * entry_bytes) e) entries;
  b

let decode_entries b =
  let len = Bytes.length b in
  if len mod entry_bytes <> 0 then
    Error (Printf.sprintf "link-state payload length %d not a multiple of %d" len entry_bytes)
  else Ok (Array.init (len / entry_bytes) (fun i -> decode_entry b (i * entry_bytes)))

let check_id id =
  if id < 0 || id > 0xFFFF then invalid_arg "Wire: node id outside 16-bit range"

let encode_recommendations recs =
  let b = Bytes.create (recommendation_bytes * List.length recs) in
  List.iteri
    (fun i (dst, hop) ->
      check_id dst;
      check_id hop;
      put_u16 b (i * recommendation_bytes) dst;
      put_u16 b ((i * recommendation_bytes) + 2) hop)
    recs;
  b

let decode_recommendations b =
  let len = Bytes.length b in
  if len mod recommendation_bytes <> 0 then
    Error
      (Printf.sprintf "recommendation payload length %d not a multiple of %d" len
         recommendation_bytes)
  else
    Ok
      (List.init (len / recommendation_bytes) (fun i ->
           (get_u16 b (i * recommendation_bytes), get_u16 b ((i * recommendation_bytes) + 2))))

let roundtrip_entry e =
  let b = Bytes.create entry_bytes in
  encode_entry b 0 e;
  decode_entry b 0

module Delta = struct
  type t = { owner : int; epoch : int; changes : (int * Entry.t) list }

  let header_bytes = 6
  let change_bytes = 2 + entry_bytes

  let payload_bytes t = header_bytes + (change_bytes * List.length t.changes)

  let of_snapshots ~metric ~epoch ~prev ~next =
    { owner = Snapshot.owner next; epoch; changes = Snapshot.diff ~metric ~prev ~next }

  let apply t snapshot =
    if Snapshot.owner snapshot <> t.owner then
      invalid_arg "Wire.Delta.apply: owner mismatch";
    Snapshot.with_entries snapshot t.changes

  let put_u32 b off v =
    put_u16 b off ((v lsr 16) land 0xFFFF);
    put_u16 b (off + 2) (v land 0xFFFF)

  let get_u32 b off = (get_u16 b off lsl 16) lor get_u16 b (off + 2)

  let encode t =
    check_id t.owner;
    if t.epoch < 0 || t.epoch > 0xFFFFFFFF then
      invalid_arg "Wire.Delta: epoch outside 32-bit range";
    let b = Bytes.create (payload_bytes t) in
    put_u16 b 0 t.owner;
    put_u32 b 2 t.epoch;
    List.iteri
      (fun i (id, e) ->
        check_id id;
        let off = header_bytes + (i * change_bytes) in
        put_u16 b off id;
        encode_entry b (off + 2) e)
      t.changes;
    b

  let decode b =
    let len = Bytes.length b in
    if len < header_bytes then
      Error (Printf.sprintf "delta payload length %d shorter than the %d-byte header" len header_bytes)
    else if (len - header_bytes) mod change_bytes <> 0 then
      Error
        (Printf.sprintf "delta payload length %d not %d + a multiple of %d" len
           header_bytes change_bytes)
    else begin
      let owner = get_u16 b 0 in
      let epoch = get_u32 b 2 in
      let changes =
        List.init
          ((len - header_bytes) / change_bytes)
          (fun i ->
            let off = header_bytes + (i * change_bytes) in
            (get_u16 b off, decode_entry b (off + 2)))
      in
      Ok { owner; epoch; changes }
    end
end
