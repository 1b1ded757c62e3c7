(* The sans-IO core's contracts:

   - the Message binary codec round-trips every constructor;
   - Node_core.handle is a pure function of (state, now, input) — two
     identically-constructed cores fed identical input scripts emit
     identical output streams;
   - the sim-hosted node is the same machine: a golden trace of one
     node's (now, input, outputs) triples recorded during a full churn
     emulation replays exactly through a fresh core alone, with no
     engine, network or cluster around it;
   - the engine handler is installed before anything can send (t = 0
     delivery regression). *)

open Apor_util
open Apor_linkstate
open Apor_overlay
open Apor_overlay_core
open Apor_topology

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- message codec ------------------------------------------------------ *)

let roundtrip msg =
  match Message.decode (Message.encode msg) with
  | Ok m -> m
  | Error e -> Alcotest.failf "decode failed on %a: %s" Message.pp msg e

let check_roundtrip msg =
  check_bool (Format.asprintf "roundtrip %a" Message.pp msg) true
    (Message.equal msg (roundtrip msg))

(* Generators produce already-quantized entries so that the wire's
   quantization is the identity and round-trips compare equal. *)
let gen_entry =
  QCheck.Gen.(
    let* alive = bool in
    if not alive then return Entry.unreachable
    else
      let* latency_ms = float_range 0.1 500. in
      let* loss = float_range 0. 0.5 in
      return (Entry.quantize (Entry.make ~latency_ms ~loss ~alive:true)))

let gen_snapshot ~n owner =
  QCheck.Gen.(
    let* entries = array_repeat n gen_entry in
    entries.(owner) <- Entry.self;
    return (Snapshot.create ~owner entries))

let gen_message =
  QCheck.Gen.(
    let small_port = int_range 0 40 in
    let base =
      [
        (let* seq = int_range 0 0xFFFFFFFF in
         return (Message.Probe { seq }));
        (let* seq = int_range 0 0xFFFFFFFF in
         return (Message.Probe_reply { seq }));
        (let* view = int_range 0 1000 in
         let* n = int_range 2 12 in
         let* owner = int_range 0 (n - 1) in
         let* epoch = int_range 0 0xFFFFFFFF in
         let* snapshot = gen_snapshot ~n owner in
         return (Message.Link_state { view; epoch; snapshot }));
        (let* view = int_range 0 1000 in
         let* owner = int_range 0 60 in
         let* epoch = int_range 0 0xFFFFFFFF in
         let* k = int_range 0 6 in
         let* ids = list_repeat k (int_range 0 60) in
         let* entries = list_repeat k gen_entry in
         let changes = List.combine (List.sort_uniq Int.compare ids |> fun l -> List.filteri (fun i _ -> i < List.length entries) l)
                         (List.filteri (fun i _ -> i < List.length (List.sort_uniq Int.compare ids)) entries) in
         return (Message.Link_state_delta { view; delta = { Wire.Delta.owner; epoch; changes } }));
        (let* view = int_range 0 1000 in
         let* owner = small_port in
         return (Message.Ls_resync { view; owner }));
        (let* view = int_range 0 1000 in
         let* k = int_range 0 8 in
         let* entries = list_repeat k (pair small_port small_port) in
         return (Message.Recommend { view; entries }));
        (let* port = small_port in
         return (Message.Join { port }));
        (let* port = small_port in
         return (Message.Leave { port }));
        (let* version = int_range 0 0xFFFFFFFF in
         let* members = list_size (int_range 0 20) small_port in
         return (Message.View { version; members }));
        (let* id = int_range 0 0xFFFFFFFF in
         let* origin = small_port in
         let* dst = small_port in
         let* ttl = int_range 0 255 in
         return (Message.Data { id; origin; dst; ttl }));
      ]
    in
    let* inner = oneof base in
    let* wrap = int_range 0 3 in
    if wrap > 0 then
      let* origin = small_port in
      let* target = small_port in
      return (Message.Relay { origin; target; inner })
    else return inner)

let codec_roundtrip_qcheck =
  QCheck.Test.make ~count:500 ~name:"codec round-trips every constructor"
    (QCheck.make gen_message ~print:(Format.asprintf "%a" Message.pp))
    (fun msg -> Message.equal msg (roundtrip msg))

let test_codec_edge_cases () =
  (* empty delta *)
  check_roundtrip
    (Message.Link_state_delta
       { view = 0; delta = { Wire.Delta.owner = 0; epoch = 1; changes = [] } });
  (* maximal 32-bit epoch *)
  check_roundtrip
    (Message.Link_state_delta
       {
         view = 17;
         delta =
           {
             Wire.Delta.owner = 3;
             epoch = 0xFFFFFFFF;
             changes = [ (1, Entry.unreachable) ];
           };
       });
  let snapshot =
    Snapshot.create ~owner:0 [| Entry.self; Entry.quantize (Entry.make ~latency_ms:42. ~loss:0.1 ~alive:true) |]
  in
  check_roundtrip (Message.Link_state { view = 0xFFFFFFFF; epoch = 0xFFFFFFFF; snapshot });
  check_roundtrip (Message.Recommend { view = 0; entries = [] });
  check_roundtrip (Message.View { version = 1; members = [] });
  check_roundtrip
    (Message.Relay
       {
         origin = 1;
         target = 2;
         inner = Message.Relay { origin = 3; target = 4; inner = Message.Probe { seq = 0 } };
       });
  (* corrupted input must reject, not raise *)
  (match Message.decode (Bytes.of_string "") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input decoded");
  (match Message.decode (Bytes.of_string "\255\001\002") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk tag decoded");
  let truncated =
    let b = Message.encode (Message.Data { id = 9; origin = 1; dst = 2; ttl = 3 }) in
    Bytes.sub b 0 (Bytes.length b - 1)
  in
  match Message.decode truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input decoded"

(* --- purity ------------------------------------------------------------- *)

(* A pseudo-random but fully deterministic input script: two cores built
   with the same parameters must traverse it emitting identical outputs. *)
let gen_script =
  QCheck.Gen.(
    let n = 9 in
    (* port 0 is the node under test: it never receives from itself *)
    let port = int_range 1 (n - 1) in
    let step =
      oneof
        [
          (let* src_port = port in
           let* seq = int_range 0 5 in
           return (Node_core.Deliver { src_port; msg = Message.Probe_reply { seq } }));
          (let* src_port = port in
           let* seq = int_range 0 5 in
           return (Node_core.Deliver { src_port; msg = Message.Probe { seq } }));
          (let* src_port = port in
           let* k = int_range 0 4 in
           let* entries = list_repeat k (pair port port) in
           return (Node_core.Deliver { src_port; msg = Message.Recommend { view = 1; entries } }));
          (let* dst_port = port in
           let* id = int_range 0 1000 in
           return (Node_core.Send_data { dst_port; id }));
          (let* peer = port in
           let* up = bool in
           return (Node_core.Link_report { peer; up }));
          return (Node_core.Tick Node_core.Router_tick);
        ]
    in
    list_size (int_range 1 60) step)

let make_core ~seed =
  Node_core.create ~config:Config.quorum_default ~port:0 ~capacity:9 ~trace:false
    ~rng:(Rng.split (Rng.make ~seed) "node.0")
    ()

let outputs_equal a b =
  List.length a = List.length b && List.for_all2 Node_core.equal_output a b

let purity_qcheck =
  QCheck.Test.make ~count:100 ~name:"equal states + inputs => equal outputs"
    (QCheck.make gen_script ~print:(fun script ->
         Format.asprintf "%a"
           (Format.pp_print_list Node_core.pp_input)
           script))
    (fun script ->
      let run () =
        let core = make_core ~seed:11 in
        let view = View.create ~version:1 ~members:(List.init 9 Fun.id) in
        let first =
          [ Node_core.handle core ~now:0. Node_core.Start;
            Node_core.handle core ~now:0. (Node_core.Install_view view) ]
        in
        let _, rest =
          List.fold_left
            (fun (i, acc) input ->
              let now = 0.1 *. float_of_int (i + 1) in
              (i + 1, Node_core.handle core ~now input :: acc))
            (0, []) script
        in
        first @ List.rev rest
      in
      List.for_all2 outputs_equal (run ()) (run ()))

(* --- golden trace: sim-hosted node = bare core -------------------------- *)

(* Deep copies: the table may mutate stored snapshots in place on later
   delta applications, and the engine shares message objects between the
   sender's outputs and the receiver's inputs, so both recorded inputs
   and recorded outputs must be snapshotted at tap time. *)
let rec copy_message (m : Message.t) =
  match m with
  | Message.Link_state { view; epoch; snapshot } ->
      Message.Link_state { view; epoch; snapshot = Snapshot.copy snapshot }
  | Message.Relay { origin; target; inner } ->
      Message.Relay { origin; target; inner = copy_message inner }
  | Message.Probe _ | Message.Probe_reply _ | Message.Link_state_delta _
  | Message.Ls_resync _ | Message.Recommend _ | Message.Join _ | Message.Leave _
  | Message.View _ | Message.Data _ | Message.Dgram _ | Message.Member _ ->
      m

let copy_input (i : Node_core.input) =
  match i with
  | Node_core.Deliver { src_port; msg } ->
      Node_core.Deliver { src_port; msg = copy_message msg }
  | Node_core.Start | Node_core.Install_view _ | Node_core.Tick _
  | Node_core.Send_data _ | Node_core.Leave | Node_core.Link_report _ ->
      i

let copy_output (o : Node_core.output) =
  match o with
  | Node_core.Send { dst_port; msg } ->
      Node_core.Send { dst_port; msg = copy_message msg }
  | Node_core.Set_timer _ | Node_core.Deliver_data _ | Node_core.Recommend _
  | Node_core.Trace _ ->
      o

let test_golden_trace_replay () =
  let n = 25 and seed = 7 and horizon = 200. in
  let world = Internet.generate ~seed ~n () in
  let c =
    Cluster.create ~config:Config.quorum_default ~rtt_ms:world.Internet.rtt_ms
      ~loss:world.Internet.loss ~seed ()
  in
  let (_ : Failures.t) =
    Failures.install ~engine:(Cluster.engine c) ~profile:Failures.planetlab ~seed ()
  in
  let log = ref [] in
  Runtime.set_tap
    (Node.runtime (Cluster.node c 0))
    (Some
       (fun now input outputs ->
         log := (now, copy_input input, List.map copy_output outputs) :: !log));
  Cluster.start c;
  Cluster.run_until c horizon;
  let log = List.rev !log in
  check_bool "recorded a non-trivial input log" true (List.length log > 1000);
  (* Replay through a bare core: same construction parameters as the
     cluster used for node 0 — no engine, no network, no cluster. *)
  let core =
    Node_core.create ~config:Config.quorum_default ~port:0 ~capacity:n ~trace:false
      ~rng:(Rng.split (Rng.make ~seed) "node.0")
      ()
  in
  let step = ref 0 in
  List.iter
    (fun (now, input, expected) ->
      incr step;
      let got = Node_core.handle core ~now input in
      if not (outputs_equal expected got) then
        Alcotest.failf
          "step %d (t=%.6f, input %a): sim-hosted node emitted %d outputs, bare core %d:@.%a@.vs@.%a"
          !step now Node_core.pp_input input (List.length expected) (List.length got)
          (Format.pp_print_list Node_core.pp_output)
          expected
          (Format.pp_print_list Node_core.pp_output)
          got)
    log

(* --- t = 0 delivery (Engine.set_handler foot-gun) ----------------------- *)

let test_t0_delivery () =
  let n = 4 in
  let rtt_ms = Array.make_matrix n n 20. in
  for i = 0 to n - 1 do
    rtt_ms.(i).(i) <- 0.
  done;
  let c = Cluster.create ~config:Config.quorum_default ~rtt_ms ~seed:3 () in
  (* Send before Cluster.start, straight after create: with the handler
     installed late this raised "Engine: message delivered with no handler
     installed" once the engine ran. *)
  let id = Cluster.send_data_direct c ~src:1 ~dst:0 in
  Cluster.start c;
  Cluster.run_until c 1.0;
  match Cluster.data_delivered_at c id with
  | Some t -> check_bool "delivered promptly" true (t < 1.)
  | None -> Alcotest.fail "t=0 packet was not delivered"

(* --- deploy frame codec ------------------------------------------------- *)

let test_frame_roundtrip () =
  let msgs =
    [
      Message.Probe { seq = 0 };
      Message.Recommend { view = 1; entries = [ (0, 1); (2, 2) ] };
      Message.Data { id = 7; origin = 0; dst = 3; ttl = 8 };
    ]
  in
  List.iter
    (fun msg ->
      match Apor_deploy.Frame.decode (Apor_deploy.Frame.encode ~src_port:5 msg) with
      | Ok (src, m) ->
          check_int "src port" 5 src;
          check_bool "frame payload" true (Message.equal msg m)
      | Error e -> Alcotest.failf "frame decode failed: %s" e)
    msgs;
  (match Apor_deploy.Frame.decode (Bytes.of_string "short") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short frame decoded");
  let good = Apor_deploy.Frame.encode ~src_port:5 (Message.Probe { seq = 1 }) in
  Bytes.set_uint8 good 0 0x00;
  match Apor_deploy.Frame.decode good with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic decoded"

(* Frame.decode totality: random garbage, truncations, single-byte
   corruptions and trailing junk over valid frames must all come back as
   [Ok]/[Error] — never an exception.  This is what lets the chaos UDP
   injector corrupt outbound datagrams and trust receivers to survive. *)
let gen_hostile_frame =
  QCheck.Gen.(
    let arbitrary =
      let* s = string_size (int_range 0 128) in
      return (Bytes.of_string s)
    in
    let from_valid =
      let* msg = gen_message in
      let* src = int_range 0 100 in
      let frame = Apor_deploy.Frame.encode ~src_port:src msg in
      let len = Bytes.length frame in
      oneof
        [
          (let* cut = int_range 0 (len - 1) in
           return (Bytes.sub frame 0 cut));
          (let* pos = int_range 0 (len - 1) in
           let* v = int_range 0 255 in
           let b = Bytes.copy frame in
           Bytes.set_uint8 b pos v;
           return b);
          (let* extra = string_size (int_range 1 16) in
           return (Bytes.cat frame (Bytes.of_string extra)));
        ]
    in
    oneof [ arbitrary; from_valid ])

let frame_decode_total_qcheck =
  QCheck.Test.make ~count:3000 ~name:"Frame.decode is total on hostile input"
    (QCheck.make gen_hostile_frame ~print:(fun b ->
         let buf = Buffer.create (2 * Bytes.length b) in
         Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
         Buffer.contents buf))
    (fun b ->
      match Apor_deploy.Frame.decode b with Ok _ | Error _ -> true)

let test_frame_hostile_owner () =
  (* Regression: a link-state frame whose owner field points outside its
     own snapshot used to raise Invalid_argument out of Snapshot.create. *)
  let entries = [| Entry.unreachable; Entry.self |] in
  let msg = Message.Link_state { view = 1; epoch = 1; snapshot = Snapshot.create ~owner:1 entries } in
  let frame = Apor_deploy.Frame.encode ~src_port:3 msg in
  (* layout: 6-byte frame header, then tag(1) view(4) epoch(4) owner(2) n(2) *)
  Bytes.set_uint16_be frame (6 + 9) 9;
  match Apor_deploy.Frame.decode frame with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range owner decoded"

let () =
  Alcotest.run "apor_node_core"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest codec_roundtrip_qcheck;
          Alcotest.test_case "edge cases" `Quick test_codec_edge_cases;
          Alcotest.test_case "frame codec" `Quick test_frame_roundtrip;
          QCheck_alcotest.to_alcotest frame_decode_total_qcheck;
          Alcotest.test_case "hostile owner field" `Quick test_frame_hostile_owner;
        ] );
      ( "core",
        [
          QCheck_alcotest.to_alcotest purity_qcheck;
          Alcotest.test_case "golden-trace replay under churn" `Slow
            test_golden_trace_replay;
          Alcotest.test_case "t=0 delivery" `Quick test_t0_delivery;
        ] );
    ]
