(* Tests for lib/membership: wire codec robustness, the quorum-replicated
   membership state machine, the rank map across membership changes, and
   the oracle's view-agreement invariant. *)

module M = Apor_membership.Membership_core
module Wire = Apor_membership.Wire
module View = Apor_membership.View
module Ev = Apor_trace.Event
module Oracle = Apor_trace.Oracle

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- wire codec ---------------------------------------------------------- *)

let arb_ports = QCheck.(small_list (int_bound 0xFFFF))

let arb_wire =
  let open QCheck in
  let epoch = int_bound 0x7FFFFFFF in
  let port = int_bound 0xFFFF in
  oneof
    [
      map (fun p -> Wire.Join_req { port = p }) port;
      map (fun (e, m) -> Wire.Join_ack { epoch = e; members = m }) (pair epoch arb_ports);
      map
        (fun (e, m) -> Wire.View_announce { epoch = e; members = m })
        (pair epoch arb_ports);
      map
        (fun ((b, e), (j, l)) ->
          Wire.View_delta { base_epoch = b; epoch = e; joined = j; left = l })
        (pair (pair epoch epoch) (pair arb_ports arb_ports));
      map (fun e -> Wire.Epoch_resync { epoch = e }) epoch;
      map (fun p -> Wire.Leave_req { port = p }) port;
    ]

let test_wire_roundtrip =
  QCheck.Test.make ~count:500 ~name:"membership wire roundtrip" arb_wire (fun msg ->
      match Wire.decode (Wire.encode msg) with
      | Ok msg' -> Wire.equal msg msg'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let test_wire_size =
  QCheck.Test.make ~count:500 ~name:"size_bytes matches encoding" arb_wire (fun msg ->
      Bytes.length (Wire.encode msg) = Wire.size_bytes msg)

(* Every strict prefix of a valid encoding must be rejected, never crash. *)
let test_wire_truncation =
  QCheck.Test.make ~count:200 ~name:"truncated encodings rejected" arb_wire (fun msg ->
      let b = Wire.encode msg in
      let ok = ref true in
      for len = 0 to Bytes.length b - 1 do
        match Wire.decode (Bytes.sub b 0 len) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      !ok)

let test_wire_trailing_rejected () =
  let b = Wire.encode (Wire.Epoch_resync { epoch = 7 }) in
  let padded = Bytes.cat b (Bytes.make 1 '\x00') in
  check_bool "trailing byte rejected" true (Result.is_error (Wire.decode padded))

let test_wire_unknown_tag () =
  let b = Bytes.make 3 '\xEE' in
  check_bool "unknown tag rejected" true (Result.is_error (Wire.decode b))

(* Hostile bytes: arbitrary garbage never crashes the decoder, and
   whatever it accepts re-encodes to the identical bytes (canonical). *)
let test_wire_hostile =
  QCheck.Test.make ~count:1000 ~name:"hostile bytes never crash decode"
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      let b = Bytes.of_string s in
      match Wire.decode b with
      | Ok msg -> Bytes.equal (Wire.encode msg) b
      | Error _ -> true)

let test_wire_encode_range () =
  Alcotest.check_raises "oversized port"
    (Invalid_argument "Membership.Wire.encode: u16 out of range") (fun () ->
      ignore (Wire.encode (Wire.Join_req { port = 0x10000 })))

(* --- epochs -------------------------------------------------------------- *)

let test_epochs () =
  let e1 = M.genesis_epoch in
  check_int "genesis" (1 lsl 16) e1;
  let e2 = M.next_epoch ~prev:e1 ~sponsor:5 in
  check_bool "monotone" true (e2 > e1);
  check_int "sponsor in low bits" 5 (e2 land 0xFFFF);
  (* concurrent sponsors produce distinct, ordered epochs *)
  let ea = M.next_epoch ~prev:e2 ~sponsor:3 in
  let eb = M.next_epoch ~prev:e2 ~sponsor:9 in
  check_bool "distinct" true (ea <> eb);
  check_bool "both advance" true (ea > e2 && eb > e2);
  Alcotest.check_raises "counter overflow"
    (Invalid_argument "Membership_core: epoch counter overflow") (fun () ->
      ignore (M.next_epoch ~prev:(0xFFFF lsl 16) ~sponsor:0))

(* --- protocol micro-harness ----------------------------------------------

   A tiny deterministic driver over a set of cores: instant delivery,
   FIFO message queue, manual time.  Enough to script exact protocol
   interleavings the full simulator would obscure. *)

module Harness = struct
  type t = {
    cores : (int, M.t) Hashtbl.t;
    queue : (int * int * Wire.t) Queue.t; (* src, dst, msg *)
    mutable timers : (float * int * M.timer) list; (* at, port, timer *)
    mutable now : float;
    mutable events : Ev.t list; (* reverse order *)
  }

  let create () =
    { cores = Hashtbl.create 8; queue = Queue.create (); timers = []; now = 0.; events = [] }

  let params = M.derive ~routing_interval_s:15. ~refresh_s:1800.

  let add t ~port role =
    Hashtbl.replace t.cores port (M.create ~params ~port ~role ~trace:true ())

  let core t port = Hashtbl.find t.cores port

  let rec perform t ~port outputs =
    List.iter
      (fun (o : M.output) ->
        match o with
        | M.Send { dst_port; msg } -> Queue.push (port, dst_port, msg) t.queue
        | M.Set_timer { timer; delay } ->
            t.timers <- t.timers @ [ (t.now +. delay, port, timer) ]
        | M.Install _ -> ()
        | M.Trace ev -> t.events <- ev :: t.events)
      outputs;
    deliver_all t

  and deliver_all t =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some (src, dst, msg) ->
        (match Hashtbl.find_opt t.cores dst with
        | Some core ->
            let out = M.handle core ~now:t.now (M.Deliver { src_port = src; msg }) in
            perform t ~port:dst out
        | None -> () (* dead or never-created node: message vanishes *));
        deliver_all t

  let input t ~port i = perform t ~port (M.handle (core t port) ~now:t.now i)

  (* Fire every timer due up to [until], in (time, arming order). *)
  let advance t ~until =
    let continue = ref true in
    while !continue do
      match
        List.fold_left
          (fun acc (at, port, timer) ->
            match acc with
            | Some (at', _, _) when at' <= at -> acc
            | _ -> if at <= until then Some (at, port, timer) else acc)
          None t.timers
      with
      | Some (at, port, timer) ->
          t.timers <-
            (let removed = ref false in
             List.filter
               (fun e ->
                 if !removed then true
                 else if e = (at, port, timer) then (
                   removed := true;
                   false)
                 else true)
               t.timers);
          t.now <- Float.max t.now at;
          input t ~port (M.Tick timer)
      | None -> continue := false
    done;
    t.now <- Float.max t.now until
end

let genesis3 = [ 0; 1; 2 ]

let test_genesis_member_installs () =
  let h = Harness.create () in
  List.iter (fun p -> Harness.add h ~port:p (M.Member (M.genesis_view ~members:genesis3))) genesis3;
  List.iter (fun p -> Harness.input h ~port:p M.Start) genesis3;
  List.iter
    (fun p ->
      check_int (Printf.sprintf "node %d epoch" p) M.genesis_epoch
        (M.epoch (Harness.core h p)))
    genesis3

let test_join_admission () =
  let h = Harness.create () in
  List.iter (fun p -> Harness.add h ~port:p (M.Member (M.genesis_view ~members:genesis3))) genesis3;
  List.iter (fun p -> Harness.input h ~port:p M.Start) genesis3;
  Harness.add h ~port:7 (M.Joiner { contacts = [ 1; 0; 2 ] });
  Harness.input h ~port:7 M.Start;
  (* Instant delivery: the whole join round trip completes synchronously. *)
  let j = Harness.core h 7 in
  check_bool "joiner admitted" true (M.is_member j);
  check_bool "epoch advanced" true (M.epoch j > M.genesis_epoch);
  (* every member converged to the same epoch *)
  let e = M.epoch j in
  List.iter
    (fun p -> check_int (Printf.sprintf "node %d converged" p) e (M.epoch (Harness.core h p)))
    genesis3;
  (* the new view contains all four *)
  (match M.current_view j with
  | Some v ->
      check_int "size" 4 (View.size v);
      List.iter (fun p -> check_bool "member" true (View.contains_port v p)) (7 :: genesis3)
  | None -> Alcotest.fail "joiner has no view");
  (* trace recorded the admission *)
  let admitted =
    List.exists
      (function Ev.Join_admitted { port = 7; _ } -> true | _ -> false)
      h.Harness.events
  in
  check_bool "join_admitted traced" true admitted

let test_join_req_idempotent () =
  let h = Harness.create () in
  List.iter (fun p -> Harness.add h ~port:p (M.Member (M.genesis_view ~members:genesis3))) genesis3;
  List.iter (fun p -> Harness.input h ~port:p M.Start) genesis3;
  Harness.add h ~port:7 (M.Joiner { contacts = [ 1 ] });
  Harness.input h ~port:7 M.Start;
  let e = M.epoch (Harness.core h 7) in
  (* A duplicate Join_req (retry racing the ack) must not mint a new view. *)
  Harness.input h ~port:1 (M.Deliver { src_port = 7; msg = Wire.Join_req { port = 7 } });
  check_int "epoch unchanged" e (M.epoch (Harness.core h 1));
  check_int "joiner unchanged" e (M.epoch (Harness.core h 7))

let test_join_retry_rotates_contacts () =
  let h = Harness.create () in
  List.iter (fun p -> Harness.add h ~port:p (M.Member (M.genesis_view ~members:genesis3))) genesis3;
  List.iter (fun p -> Harness.input h ~port:p M.Start) genesis3;
  (* First contact is dead (not in the harness): the Join_req vanishes.
     The retry timer must rotate to the live contact. *)
  Harness.add h ~port:7 (M.Joiner { contacts = [ 99; 1 ] });
  Harness.input h ~port:7 M.Start;
  check_bool "not yet admitted" false (M.is_member (Harness.core h 7));
  Harness.advance h ~until:(Harness.params.M.join_retry_s +. 0.1);
  check_bool "admitted after retry" true (M.is_member (Harness.core h 7))

let test_gossip_heals_partitioned_member () =
  let h = Harness.create () in
  let members = [ 0; 1; 2; 3 ] in
  List.iter (fun p -> Harness.add h ~port:p (M.Member (M.genesis_view ~members))) members;
  List.iter (fun p -> Harness.input h ~port:p M.Start) members;
  (* Admit a joiner sponsored by node 1, but with node 0's core replaced
     afterward by a stale twin that missed every announcement. *)
  let stale = M.create ~params:Harness.params ~port:0 ~role:(M.Member (M.genesis_view ~members)) () in
  ignore (M.handle stale ~now:0. M.Start);
  Harness.add h ~port:9 (M.Joiner { contacts = [ 1 ] });
  Harness.input h ~port:9 M.Start;
  let target = M.epoch (Harness.core h 1) in
  check_bool "cluster advanced" true (target > M.genesis_epoch);
  (* Swap the stale twin in: it still holds the genesis epoch. *)
  Hashtbl.replace h.Harness.cores 0 stale;
  check_int "stale twin behind" M.genesis_epoch (M.epoch stale);
  (* One gossip round from the stale node: its old digest solicits a push
     from an up-to-date quorum peer. *)
  h.Harness.timers <- [];
  ignore (M.handle stale ~now:h.Harness.now (M.Tick M.Gossip) |> Harness.perform h ~port:0);
  check_int "healed by gossip" target (M.epoch (Harness.core h 0))

let test_view_delta_one_behind () =
  (* A member exactly one epoch behind gets a compact delta, not a full
     announce, and lands on the identical view. *)
  let h = Harness.create () in
  let members = [ 0; 1; 2; 3 ] in
  List.iter (fun p -> Harness.add h ~port:p (M.Member (M.genesis_view ~members))) members;
  List.iter (fun p -> Harness.input h ~port:p M.Start) members;
  Harness.add h ~port:9 (M.Joiner { contacts = [ 1 ] });
  Harness.input h ~port:9 M.Start;
  let sponsor = Harness.core h 1 in
  let behind = M.create ~params:Harness.params ~port:0 ~role:(M.Member (M.genesis_view ~members)) () in
  ignore (M.handle behind ~now:0. M.Start);
  (* Ask the sponsor directly: a genesis-epoch digest from port 0. *)
  let out =
    M.handle sponsor ~now:1.
      (M.Deliver { src_port = 0; msg = Wire.Epoch_resync { epoch = M.genesis_epoch } })
  in
  let sent_delta =
    List.exists
      (function
        | M.Send { dst_port = 0; msg = Wire.View_delta { joined = [ 9 ]; left = []; _ } } ->
            true
        | _ -> false)
      out
  in
  check_bool "one-behind repair is a delta" true sent_delta;
  (* Apply it to the behind node: identical view as the sponsor's. *)
  List.iter
    (fun (o : M.output) ->
      match o with
      | M.Send { dst_port = 0; msg } ->
          ignore (M.handle behind ~now:1. (M.Deliver { src_port = 1; msg }))
      | _ -> ())
    out;
  check_int "delta lands on same epoch" (M.epoch sponsor) (M.epoch behind);
  match (M.current_view sponsor, M.current_view behind) with
  | Some a, Some b -> check_bool "same members" true (View.equal a b)
  | _ -> Alcotest.fail "missing view"

let test_monotone_adoption () =
  (* A member never adopts an older or equal epoch. *)
  let h = Harness.create () in
  List.iter (fun p -> Harness.add h ~port:p (M.Member (M.genesis_view ~members:genesis3))) genesis3;
  List.iter (fun p -> Harness.input h ~port:p M.Start) genesis3;
  Harness.add h ~port:7 (M.Joiner { contacts = [ 1 ] });
  Harness.input h ~port:7 M.Start;
  let c0 = Harness.core h 0 in
  let e = M.epoch c0 in
  ignore
    (M.handle c0 ~now:5.
       (M.Deliver
          { src_port = 2; msg = Wire.View_announce { epoch = M.genesis_epoch; members = genesis3 } }));
  check_int "stale announce ignored" e (M.epoch c0)

(* --- remap across view changes ------------------------------------------ *)

let test_rank_map () =
  let prev = View.create ~version:1 ~members:[ 10; 20; 30; 40 ] in
  let next = View.create ~version:2 ~members:[ 20; 25; 40 ] in
  let map = View.rank_map ~prev ~next in
  Alcotest.(check (array (option int)))
    "old rank per new rank"
    [| Some 1; None; Some 3 |]
    map

(* --- oracle: view agreement ---------------------------------------------- *)

let mk_oracle () =
  Oracle.create ~raise_on_violation:false ~metric:Apor_linkstate.Metric.Latency
    ~staleness_s:45. ()

let test_oracle_epoch_corruption_detected () =
  let o = mk_oracle () in
  let feed ~at ev = Oracle.observe o { Apor_trace.Collector.seq = 0; time = at; event = ev } in
  feed ~at:1. (Ev.View_adopted { node = 5; epoch = 1 lsl 16; size = 3 });
  feed ~at:2. (Ev.View_adopted { node = 5; epoch = (2 lsl 16) lor 1; size = 4 });
  check_int "monotone adoptions pass" 0 (Oracle.violation_count o);
  (* Corrupt: an equal epoch re-adopted... *)
  feed ~at:3. (Ev.View_adopted { node = 5; epoch = (2 lsl 16) lor 1; size = 4 });
  check_int "equal epoch flagged" 1 (Oracle.violation_count o);
  (* ...and a regression. *)
  feed ~at:4. (Ev.View_adopted { node = 5; epoch = 1 lsl 16; size = 3 });
  check_int "regression flagged" 2 (Oracle.violation_count o);
  (* After a View_reset (real restart) a lower epoch is lawful. *)
  feed ~at:5. (Ev.View_reset { node = 5 });
  feed ~at:6. (Ev.View_adopted { node = 5; epoch = 1 lsl 16; size = 3 });
  check_int "reset clears tracker" 2 (Oracle.violation_count o)

let test_oracle_view_agreement_convergence () =
  let o = mk_oracle () in
  let feed ~at ev = Oracle.observe o { Apor_trace.Collector.seq = 0; time = at; event = ev } in
  let e1 = 1 lsl 16 and e2 = (2 lsl 16) lor 1 in
  feed ~at:1. (Ev.View_adopted { node = 1; epoch = e1; size = 3 });
  feed ~at:1. (Ev.View_adopted { node = 2; epoch = e1; size = 3 });
  feed ~at:10. (Ev.View_adopted { node = 1; epoch = e2; size = 4 });
  (* Within grace: node 2 lagging is fine. *)
  Oracle.check_view_agreement o ~now:20. ~grace_s:45. ~live:[ 1; 2 ];
  check_int "within grace" 0 (Oracle.violation_count o);
  (* Out of grace: node 2 still on e1 is a violation; so is node 3,
     live with no view at all. *)
  Oracle.check_view_agreement o ~now:100. ~grace_s:45. ~live:[ 1; 2; 3 ];
  check_int "laggard and viewless flagged" 2 (Oracle.violation_count o);
  (* Dead nodes are not consulted. *)
  let o2 = mk_oracle () in
  Oracle.observe o2
    { Apor_trace.Collector.seq = 0; time = 1.; event = Ev.View_adopted { node = 1; epoch = e1; size = 3 } };
  Oracle.check_view_agreement o2 ~now:100. ~grace_s:45. ~live:[ 1 ];
  check_int "converged live set passes" 0 (Oracle.violation_count o2)

let test_oracle_static_runs_unaffected () =
  let o = mk_oracle () in
  Oracle.check_view_agreement o ~now:1000. ~grace_s:45. ~live:[ 0; 1; 2 ];
  check_int "no adoptions, no violations" 0 (Oracle.violation_count o)

(* --- end to end on the simulator ----------------------------------------- *)

let test_sim_dynamic_join_end_to_end () =
  let module Cluster = Apor_overlay.Cluster in
  let n = 11 in
  let rtt = Array.make_matrix n n 40. in
  for i = 0 to n - 1 do
    rtt.(i).(i) <- 0.
  done;
  let trace = Apor_trace.Collector.create ~capacity:(1 lsl 14) () in
  let oracle = mk_oracle () in
  Oracle.attach oracle trace;
  let cluster =
    Cluster.create ~config:Apor_overlay_core.Config.quorum_default ~rtt_ms:rtt
      ~membership:(Cluster.Dynamic { initial = 9; rtt_ms = 40. })
      ~trace ~seed:3 ()
  in
  Cluster.start cluster;
  Cluster.run_until cluster 30.;
  Cluster.join_node cluster 9;
  Cluster.run_until cluster 90.;
  Cluster.join_node cluster 10;
  Cluster.run_until cluster 240.;
  (* Every node (genesis and joiners) holds the same 11-member view. *)
  let views =
    List.init n (fun p ->
        match Apor_overlay.Node.current_view (Cluster.node cluster p) with
        | Some v -> v
        | None -> Alcotest.fail (Printf.sprintf "node %d has no view" p))
  in
  let reference = List.hd views in
  check_int "final size" 11 (View.size reference);
  List.iteri
    (fun p v -> check_bool (Printf.sprintf "node %d converged" p) true (View.equal reference v))
    views;
  Oracle.check_view_agreement oracle ~now:(Cluster.now cluster) ~grace_s:45.
    ~live:(List.init n Fun.id);
  check_int "no view-agreement violations" 0 (Oracle.violation_count oracle)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "membership"
    [
      ( "wire",
        [
          qt test_wire_roundtrip;
          qt test_wire_size;
          qt test_wire_truncation;
          qt test_wire_hostile;
          Alcotest.test_case "trailing bytes rejected" `Quick test_wire_trailing_rejected;
          Alcotest.test_case "unknown tag rejected" `Quick test_wire_unknown_tag;
          Alcotest.test_case "encode range checks" `Quick test_wire_encode_range;
        ] );
      ("epochs", [ Alcotest.test_case "ballot epochs" `Quick test_epochs ]);
      ( "protocol",
        [
          Alcotest.test_case "genesis members install" `Quick test_genesis_member_installs;
          Alcotest.test_case "join admission via quorum write" `Quick test_join_admission;
          Alcotest.test_case "duplicate join_req idempotent" `Quick test_join_req_idempotent;
          Alcotest.test_case "join retry rotates contacts" `Quick
            test_join_retry_rotates_contacts;
          Alcotest.test_case "gossip heals stale member" `Quick
            test_gossip_heals_partitioned_member;
          Alcotest.test_case "one-behind repair is a delta" `Quick test_view_delta_one_behind;
          Alcotest.test_case "adoption strictly monotone" `Quick test_monotone_adoption;
        ] );
      ( "remap",
        [
          Alcotest.test_case "view rank_map" `Quick test_rank_map;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "epoch corruption detected" `Quick
            test_oracle_epoch_corruption_detected;
          Alcotest.test_case "convergence grace window" `Quick
            test_oracle_view_agreement_convergence;
          Alcotest.test_case "static runs unaffected" `Quick test_oracle_static_runs_unaffected;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "sim dynamic joins converge" `Quick
            test_sim_dynamic_join_end_to_end;
        ] );
    ]
