(* Codec kernels: CPU nanoseconds and minor words per encode and decode of
   the five wire formats, on messages sized for an overlay of [n] nodes.
   The simulator never serializes, so these only bear on the loopback
   runtime; they are reported in every traced run so a codec change shows
   even where no end-to-end metric can move. *)

open Common
module Entry = Apor_linkstate.Entry
module Snapshot = Apor_linkstate.Snapshot
module Wire = Apor_linkstate.Wire
module Message = Apor_overlay_core.Message
module Member_wire = Apor_membership.Wire
module Frame = Apor_deploy.Frame
module Packet = Apor_dataplane.Packet

let entries n =
  Array.init n (fun j ->
      if j = 0 then Entry.self
      else if j mod 17 = 0 then Entry.unreachable
      else Entry.make ~latency_ms:(float_of_int (20 + (j * 37 mod 400))) ~loss:0.01 ~alive:true)

(* Minor words per call, counted exactly over a few warm calls; CPU ns per
   call as the median of three repetitions of [budget] CPU seconds each,
   run in batches of about a millisecond so reading the clock costs
   nothing measurable. *)
let time_kernel ~budget f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 4 do
    f ()
  done;
  let words = (Gc.minor_words () -. w0) /. 4. in
  let rec calibrate batch =
    let c0 = cpu () in
    for _ = 1 to batch do
      f ()
    done;
    if cpu () -. c0 >= 1e-3 || batch >= 1 lsl 24 then batch else calibrate (batch * 4)
  in
  let batch = calibrate 1 in
  let rep () =
    let c0 = cpu () in
    let calls = ref 0 in
    while cpu () -. c0 < budget do
      for _ = 1 to batch do
        f ()
      done;
      calls := !calls + batch
    done;
    (cpu () -. c0) *. 1e9 /. float_of_int !calls
  in
  let ns = median [ rep (); rep (); rep () ] in
  (ns, words)

let kernels ~n =
  let snap = Snapshot.create ~owner:1 (entries n) in
  let changes = List.init (max 1 (n / 10)) (fun i -> ((i * 7) + 1) mod n, Entry.make ~latency_ms:55. ~loss:0. ~alive:true) in
  let delta = { Wire.Delta.owner = 1; epoch = 9; changes } in
  let ls = Message.Link_state { view = 3; epoch = 9; snapshot = snap } in
  let lsd = Message.Link_state_delta { view = 3; delta } in
  let members = List.init n Fun.id in
  let announce = Member_wire.View_announce { epoch = (7 lsl 16) lor 1; members } in
  let pkt =
    { Packet.id = 123456; origin = 3; dst = min (n - 1) 9; hops = 0; sent_at_us = 987654321; payload_len = 64 }
  in
  let pbuf = Bytes.create (Packet.size pkt) in
  let frame_bytes = Frame.encode ~src_port:1 ls in
  let msg_bytes = Message.encode lsd in
  let ent = entries n in
  let ent_bytes = Wire.encode_entries ent in
  let mem_bytes = Member_wire.encode announce in
  let pkt_bytes = Packet.encode pkt in
  let ok = function Ok _ -> () | Error e -> failwith ("codec kernel: decode failed: " ^ e) in
  (* every decode must succeed on its own encoding before it is timed *)
  ok (Frame.decode frame_bytes);
  ok (Message.decode msg_bytes);
  ok (Wire.decode_entries ent_bytes);
  ok (Member_wire.decode mem_bytes);
  ok (Packet.decode pkt_bytes);
  [
    ("frame", (fun () -> ignore (Frame.encode ~src_port:1 ls : bytes)), fun () -> ok (Frame.decode frame_bytes));
    ("packet", (fun () -> Packet.encode_into pkt pbuf ~pos:0), fun () -> ok (Packet.decode_from pkt_bytes ~pos:0 ~limit:(Bytes.length pkt_bytes)));
    ("message", (fun () -> ignore (Message.encode lsd : bytes)), fun () -> ok (Message.decode msg_bytes));
    ("linkstate_wire", (fun () -> ignore (Wire.encode_entries ent : bytes)), fun () -> ok (Wire.decode_entries ent_bytes));
    ("membership_wire", (fun () -> ignore (Member_wire.encode announce : bytes)), fun () -> ok (Member_wire.decode mem_bytes));
  ]

let run ~n ~budget =
  List.concat_map
    (fun (name, enc, dec) ->
      let enc_ns, enc_w = time_kernel ~budget enc in
      let dec_ns, dec_w = time_kernel ~budget dec in
      [
        ("codec." ^ name ^ ".encode_ns", Num enc_ns);
        ("codec." ^ name ^ ".decode_ns", Num dec_ns);
        ("codec." ^ name ^ ".encode_words", Num enc_w);
        ("codec." ^ name ^ ".decode_words", Num dec_w);
      ])
    (kernels ~n)
