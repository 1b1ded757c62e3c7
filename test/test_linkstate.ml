open Apor_linkstate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Entry ----------------------------------------------------------------- *)

let test_entry_quantize_rounds () =
  let e = Entry.make ~latency_ms:123.6 ~loss:0.1 ~alive:true in
  let q = Entry.quantize e in
  check_float "latency rounded" 124. q.Entry.latency_ms;
  check_bool "alive" true q.Entry.alive

let test_entry_quantize_saturates () =
  let e = Entry.make ~latency_ms:1e6 ~loss:0. ~alive:true in
  check_float "saturated" (float_of_int Entry.max_latency_ms) (Entry.quantize e).Entry.latency_ms

let test_entry_dead_normalizes () =
  let e = Entry.make ~latency_ms:5. ~loss:0.2 ~alive:false in
  check_bool "dead equals unreachable" true (Entry.equal (Entry.quantize e) Entry.unreachable)

let test_entry_rejects_bad_values () =
  Alcotest.check_raises "negative latency" (Invalid_argument "Entry.make: negative latency")
    (fun () -> ignore (Entry.make ~latency_ms:(-1.) ~loss:0. ~alive:true));
  Alcotest.check_raises "bad loss" (Invalid_argument "Entry.make: loss outside [0,1]")
    (fun () -> ignore (Entry.make ~latency_ms:1. ~loss:1.5 ~alive:true))

(* --- Metric ----------------------------------------------------------------- *)

let test_metric_latency () =
  let e = Entry.make ~latency_ms:250. ~loss:0.5 ~alive:true in
  check_float "latency ignores loss" 250. (Metric.cost Metric.Latency e);
  check_bool "dead is infinite" true (Metric.cost Metric.Latency Entry.unreachable = infinity)

let test_metric_loss_sensitive () =
  let m = Metric.Loss_sensitive { retry_penalty_ms = 100. } in
  let clean = Entry.make ~latency_ms:100. ~loss:0. ~alive:true in
  let lossy = Entry.make ~latency_ms:100. ~loss:0.5 ~alive:true in
  check_float "clean unchanged" 100. (Metric.cost m clean);
  check_float "lossy penalized" 250. (Metric.cost m lossy);
  let total = Entry.make ~latency_ms:100. ~loss:1. ~alive:true in
  check_bool "loss=1 infinite" true (Metric.cost m total = infinity)

(* --- Snapshot ---------------------------------------------------------------- *)

let sample_entries =
  [|
    Entry.self;
    Entry.make ~latency_ms:10. ~loss:0. ~alive:true;
    Entry.unreachable;
    Entry.make ~latency_ms:300.4 ~loss:0.25 ~alive:true;
  |]

let test_snapshot_basics () =
  let s = Snapshot.create ~owner:0 sample_entries in
  check_int "size" 4 (Snapshot.size s);
  check_int "owner" 0 (Snapshot.owner s);
  check_bool "self alive" true (Snapshot.reaches s 0);
  check_bool "dead" false (Snapshot.reaches s 2);
  check_int "alive count" 2 (Snapshot.alive_count s);
  check_int "payload" 12 (Snapshot.payload_bytes s)

let test_snapshot_forces_self_entry () =
  let entries = Array.copy sample_entries in
  entries.(0) <- Entry.unreachable;
  let s = Snapshot.create ~owner:0 entries in
  check_bool "self forced alive" true (Snapshot.reaches s 0);
  check_float "self zero cost" 0. (Snapshot.cost s Metric.Latency 0)

let test_snapshot_cost_vector () =
  let s = Snapshot.create ~owner:0 sample_entries in
  let v = Snapshot.cost_vector s Metric.Latency in
  check_float "v0" 0. v.(0);
  check_float "v1" 10. v.(1);
  check_bool "v2 dead" true (v.(2) = infinity);
  check_float "v3 quantized" 300. v.(3)

let test_snapshot_rejects_bad_owner () =
  Alcotest.check_raises "owner" (Invalid_argument "Snapshot.create: owner outside table")
    (fun () -> ignore (Snapshot.create ~owner:9 sample_entries))

(* --- Wire -------------------------------------------------------------------- *)

let test_wire_entry_roundtrip_examples () =
  List.iter
    (fun e ->
      let rt = Wire.roundtrip_entry e in
      check_bool "roundtrip = quantize" true (Entry.equal rt (Entry.quantize e)))
    [
      Entry.self;
      Entry.unreachable;
      Entry.make ~latency_ms:1.4 ~loss:0.5 ~alive:true;
      Entry.make ~latency_ms:65534. ~loss:1. ~alive:true;
      Entry.make ~latency_ms:0. ~loss:0. ~alive:true;
    ]

let wire_entry_roundtrip =
  QCheck.Test.make ~name:"wire entry roundtrip = quantize" ~count:500
    QCheck.(triple (float_bound_exclusive 70000.) (float_bound_exclusive 1.) bool)
    (fun (latency_ms, loss, alive) ->
      let e = Entry.make ~latency_ms ~loss ~alive in
      Entry.equal (Wire.roundtrip_entry e) (Entry.quantize e))

let test_wire_entries_roundtrip () =
  let b = Wire.encode_entries sample_entries in
  check_int "payload size" (3 * 4) (Bytes.length b);
  match Wire.decode_entries b with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      Array.iteri
        (fun i e ->
          check_bool
            (Printf.sprintf "entry %d" i)
            true
            (Entry.equal e (Entry.quantize sample_entries.(i))))
        decoded

let test_wire_entries_reject_truncated () =
  let b = Wire.encode_entries sample_entries in
  let truncated = Bytes.sub b 0 (Bytes.length b - 1) in
  check_bool "truncated rejected" true (Result.is_error (Wire.decode_entries truncated))

let test_wire_recommendations_roundtrip () =
  let recs = [ (0, 5); (1000, 65535); (42, 42) ] in
  let b = Wire.encode_recommendations recs in
  check_int "size" (4 * 3) (Bytes.length b);
  match Wire.decode_recommendations b with
  | Error e -> Alcotest.fail e
  | Ok decoded -> Alcotest.(check (list (pair int int))) "roundtrip" recs decoded

let test_wire_recommendations_reject_big_id () =
  Alcotest.check_raises "id range" (Invalid_argument "Wire: node id outside 16-bit range")
    (fun () -> ignore (Wire.encode_recommendations [ (70000, 0) ]))

let test_wire_recommendations_reject_truncated () =
  let b = Wire.encode_recommendations [ (1, 2) ] in
  check_bool "rejected" true
    (Result.is_error (Wire.decode_recommendations (Bytes.sub b 0 3)))

let wire_recommendations_roundtrip =
  QCheck.Test.make ~name:"wire recommendations roundtrip" ~count:200
    QCheck.(list (pair (int_range 0 65535) (int_range 0 65535)))
    (fun recs ->
      match Wire.decode_recommendations (Wire.encode_recommendations recs) with
      | Ok decoded -> decoded = recs
      | Error _ -> false)


let wire_decode_never_raises =
  QCheck.Test.make ~name:"decoders are total on arbitrary bytes" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun junk ->
      let b = Bytes.of_string junk in
      (match Wire.decode_entries b with Ok _ | Error _ -> true)
      && (match Wire.decode_recommendations b with Ok _ | Error _ -> true))

let test_wire_decode_well_sized_junk () =
  (* any 3k / 4k byte string decodes into *something* well-formed *)
  let junk = Bytes.init 12 (fun i -> Char.chr ((i * 37) land 0xFF)) in
  (match Wire.decode_entries junk with
  | Ok entries -> check_int "4 entries" 4 (Array.length entries)
  | Error e -> Alcotest.fail e);
  match Wire.decode_recommendations junk with
  | Ok recs -> check_int "3 recs" 3 (List.length recs)
  | Error e -> Alcotest.fail e

(* --- Snapshot against the parallel-array reference ----------------------------- *)

(* The float-array snapshot the wire-width one replaced: entries quantized
   by [Entry.quantize] into unboxed latency and loss arrays plus one
   liveness byte.  Every reader of [Snapshot] must agree with it. *)
module Reference = struct
  type t = { owner : int; latency : float array; loss : float array; live : Bytes.t }

  let store t j e =
    let e = Entry.quantize (if j = t.owner then Entry.self else e) in
    t.latency.(j) <- e.Entry.latency_ms;
    t.loss.(j) <- e.Entry.loss;
    Bytes.set t.live j (if e.Entry.alive then '\001' else '\000')

  let create ~owner entries =
    let n = Array.length entries in
    let t =
      { owner; latency = Array.make n 0.; loss = Array.make n 0.; live = Bytes.make n '\000' }
    in
    Array.iteri (store t) entries;
    t

  let size t = Array.length t.latency
  let alive t j = Bytes.get t.live j = '\001'

  let entry t j =
    if alive t j then Entry.make ~latency_ms:t.latency.(j) ~loss:t.loss.(j) ~alive:true
    else Entry.unreachable

  let cost t metric j = if alive t j then Metric.cost metric (entry t j) else infinity
  let cost_vector t metric = Array.init (size t) (cost t metric)

  let alive_count t =
    let count = ref 0 in
    for j = 0 to size t - 1 do
      if j <> t.owner && alive t j then incr count
    done;
    !count

  let with_entries t changes =
    let next =
      {
        owner = t.owner;
        latency = Array.copy t.latency;
        loss = Array.copy t.loss;
        live = Bytes.copy t.live;
      }
    in
    List.iter (fun (j, e) -> store next j e) changes;
    next

  let diff ~prev ~next =
    List.filter
      (fun (j, _) -> not (Entry.equal (entry prev j) (entry next j)))
      (List.init (size prev) (fun j -> (j, entry next j)))

  let equal a b =
    a.owner = b.owner
    && size a = size b
    && List.for_all (fun j -> Entry.equal (entry a j) (entry b j)) (List.init (size a) Fun.id)
end

let metrics = [ Metric.Latency; Metric.Loss_sensitive { retry_penalty_ms = 100. } ]

(* Entries that probe every edge of the 3-byte cell: latencies above the
   65534 ms ceiling and on half-millisecond rounding boundaries, losses of
   exactly 0 and 1 and on half-step boundaries, dead links. *)
let random_entry rng =
  let open Apor_util in
  if Rng.bernoulli rng ~p:0.15 then
    Entry.make ~latency_ms:(Rng.float rng 100.) ~loss:(Rng.float rng 1.) ~alive:false
  else begin
    let latency_ms =
      match Rng.int rng 4 with
      | 0 -> 65534. +. Rng.float rng 10000.
      | 1 -> float_of_int (Rng.int rng 1000) +. 0.5
      | _ -> Rng.float rng 2000.
    in
    let loss =
      match Rng.int rng 5 with
      | 0 -> 0.
      | 1 -> 1.
      | 2 -> (float_of_int (Rng.int rng 254) +. 0.5) /. 254.
      | _ -> Rng.float rng 1.
    in
    Entry.make ~latency_ms ~loss ~alive:true
  end

let random_changes rng ~n =
  List.init (Apor_util.Rng.int rng (n + 1)) (fun _ ->
      (Apor_util.Rng.int rng n, random_entry rng))

(* Every reader, under both metrics, on every index. *)
let agrees (r : Reference.t) s =
  let n = Reference.size r in
  Snapshot.size s = n
  && Snapshot.owner s = r.Reference.owner
  && Snapshot.payload_bytes s = 3 * n
  && Snapshot.alive_count s = Reference.alive_count r
  && List.for_all
       (fun metric ->
         Snapshot.cost_vector s metric = Reference.cost_vector r metric
         && List.for_all
              (fun j -> Float.equal (Snapshot.cost s metric j) (Reference.cost r metric j))
              (List.init n Fun.id))
       metrics
  && List.for_all
       (fun j ->
         Snapshot.entry s j = Reference.entry r j
         && Snapshot.reaches s j = Reference.alive r j)
       (List.init n Fun.id)

let snapshot_matches_reference =
  QCheck.Test.make ~name:"snapshot = float-array reference" ~count:300
    QCheck.(pair (int_range 1 48) int)
    (fun (n, seed) ->
      let rng = Apor_util.Rng.make ~seed in
      let owner = Apor_util.Rng.int rng n in
      let entries = Array.init n (fun _ -> random_entry rng) in
      let s = Snapshot.create ~owner entries and r = Reference.create ~owner entries in
      (* a second row sharing most cells, with re-rounded near-duplicates,
         so that [equal] and [diff] see both equal and unequal pairs *)
      let near =
        Array.map
          (fun (e : Entry.t) ->
            if e.Entry.alive && Apor_util.Rng.bernoulli rng ~p:0.5 then
              { e with Entry.latency_ms = Float.round e.Entry.latency_ms }
            else e)
          entries
      in
      let changes = random_changes rng ~n in
      let s2 = Snapshot.with_entries (Snapshot.create ~owner near) changes
      and r2 = Reference.with_entries (Reference.create ~owner near) changes in
      let s3 = Snapshot.copy s in
      Snapshot.overwrite s3 changes;
      agrees r s && agrees r2 s2 && agrees r2 s3
      && Snapshot.equal s s2 = Reference.equal r r2
      && Snapshot.equal s (Snapshot.create ~owner near) = Reference.equal r (Reference.create ~owner near)
      && Snapshot.diff ~prev:s ~next:s2 = Reference.diff ~prev:r ~next:r2
      && Snapshot.equal s2 (Snapshot.with_entries s (Snapshot.diff ~prev:s ~next:s2)))

(* [of_wire] is today's decode path in one step: on arbitrary bytes and
   owners it equals [Wire.decode_entries] + [Snapshot.create], entry by
   entry, and reports [Error] exactly where that path fails or raises. *)
let of_wire_matches_decode =
  QCheck.Test.make ~name:"of_wire = decode_entries + create" ~count:500
    QCheck.(pair (int_range (-2) 40) (string_of_size (Gen.int_range 0 120)))
    (fun (owner, raw) ->
      let b = Bytes.of_string raw in
      let expected =
        match Wire.decode_entries b with
        | Error _ -> None
        | Ok entries -> (
            match Snapshot.create ~owner entries with
            | s -> Some (entries, s)
            | exception Invalid_argument _ -> None)
      in
      match (Snapshot.of_wire ~owner b, expected) with
      | Error _, None -> true
      | Ok s, Some (entries, s') ->
          Snapshot.equal s s'
          && agrees (Reference.create ~owner entries) s
          && List.for_all
               (fun j -> Snapshot.entry s j = Snapshot.entry s' j)
               (List.init (Array.length entries) Fun.id)
      | Ok _, None | Error _, Some _ -> false)

let test_snapshot_wire_bytes () =
  let s = Snapshot.create ~owner:0 sample_entries in
  check_bool "wire bytes are the encoded entries" true
    (Bytes.equal (Snapshot.wire_bytes s)
       (Wire.encode_entries (Array.map Entry.quantize sample_entries)));
  match Snapshot.of_wire ~owner:0 (Snapshot.wire_bytes s) with
  | Ok s' -> check_bool "of_wire inverts wire_bytes" true (Snapshot.equal s s')
  | Error e -> Alcotest.fail e

(* A snapshot is its 3n wire bytes plus a two-field record. *)
let test_snapshot_size_guard () =
  let n = 256 in
  let s =
    Snapshot.create ~owner:3
      (Array.init n (fun j -> Entry.make ~latency_ms:(float_of_int j) ~loss:0. ~alive:true))
  in
  let words = Obj.reachable_words (Obj.repr s) in
  if words > (3 * n / 8) + 8 then
    Alcotest.failf "snapshot of %d entries takes %d words, above %d" n words ((3 * n / 8) + 8)

(* --- Wire.Delta ----------------------------------------------------------------- *)

(* Random quantized snapshot over [n] nodes, owned by [owner]. *)
let random_snapshot ~rng ~owner ~n =
  Snapshot.create ~owner
    (Array.init n (fun j ->
         if j = owner then Entry.self
         else if Apor_util.Rng.bernoulli rng ~p:0.15 then Entry.unreachable
         else
           Entry.make
             ~latency_ms:(Float.round (Apor_util.Rng.float rng 500.))
             ~loss:0. ~alive:true))

(* [mutate] flips a few entries, leaving the rest alone — one routing
   interval's worth of churn. *)
let mutate_snapshot ~rng ~owner ~n prev =
  Snapshot.with_entries prev
    (List.filter_map
       (fun j ->
         if j <> owner && Apor_util.Rng.bernoulli rng ~p:0.2 then
           Some
             ( j,
               if Apor_util.Rng.bernoulli rng ~p:0.3 then Entry.unreachable
               else
                 Entry.make
                   ~latency_ms:(Float.round (Apor_util.Rng.float rng 500.))
                   ~loss:0. ~alive:true )
         else None)
       (List.init n Fun.id))

let snapshot_diff_roundtrip =
  QCheck.Test.make ~name:"with_entries prev (diff prev next) = next" ~count:200
    QCheck.(pair (int_range 2 40) int)
    (fun (n, seed) ->
      let rng = Apor_util.Rng.make ~seed in
      let owner = Apor_util.Rng.int rng n in
      let prev = random_snapshot ~rng ~owner ~n in
      let next = random_snapshot ~rng ~owner ~n in
      Snapshot.equal next (Snapshot.with_entries prev (Snapshot.diff ~prev ~next)))

let delta_wire_roundtrip =
  QCheck.Test.make ~name:"delta decode (encode d) = d" ~count:200
    QCheck.(pair (int_range 2 40) int)
    (fun (n, seed) ->
      let rng = Apor_util.Rng.make ~seed in
      let owner = Apor_util.Rng.int rng n in
      let prev = random_snapshot ~rng ~owner ~n in
      let next = mutate_snapshot ~rng ~owner ~n prev in
      let d = Wire.Delta.of_snapshots ~epoch:7 ~prev ~next in
      match Wire.Delta.decode (Wire.Delta.encode d) with
      | Error _ -> false
      | Ok d' ->
          d'.Wire.Delta.owner = d.Wire.Delta.owner
          && d'.Wire.Delta.epoch = d.Wire.Delta.epoch
          && List.for_all2
               (fun (i, e) (i', e') -> i = i' && Entry.equal e e')
               d.Wire.Delta.changes d'.Wire.Delta.changes
          && Bytes.length (Wire.Delta.encode d) = Wire.Delta.payload_bytes d)

(* The tentpole property: a receiver that applies an owner's delta stream —
   losing some deltas and recovering via the gap/full-resync protocol,
   exactly as [Router] does — ends up with the owner's final table. *)
let delta_sequence_converges =
  QCheck.Test.make ~name:"delta stream + gap resync reconstruct final table" ~count:200
    QCheck.(pair (int_range 2 24) int)
    (fun (n, seed) ->
      let rng = Apor_util.Rng.make ~seed in
      let owner = Apor_util.Rng.int rng n in
      let receiver = (owner + 1) mod n in
      let table = Table.create ~n ~owner:receiver in
      let rounds = 2 + Apor_util.Rng.int rng 10 in
      let snapshot = ref (random_snapshot ~rng ~owner ~n) in
      let ok = ref true in
      ignore (Table.ingest table !snapshot ~epoch:0 ~now:0. : bool);
      for epoch = 1 to rounds do
        let next = mutate_snapshot ~rng ~owner ~n !snapshot in
        let d = Wire.Delta.of_snapshots ~epoch ~prev:!snapshot ~next in
        let now = float_of_int epoch in
        if Apor_util.Rng.bernoulli rng ~p:0.3 then
          (* the network ate this delta; the next one must hit a gap *)
          ()
        else begin
          match Table.apply_delta table d ~now with
          | `Applied s -> if not (Snapshot.equal s next) then ok := false
          | `Gap ->
              (* receiver resyncs: owner resends the full current snapshot *)
              if not (Table.ingest table next ~epoch ~now : bool) then ok := false
          | `Stale | `Malformed -> ok := false
        end;
        snapshot := next
      done;
      (* one final resync if the last rounds were all lost *)
      let final_missing =
        match Table.row table owner with
        | Some s -> not (Snapshot.equal s !snapshot)
        | None -> true
      in
      if final_missing then
        ignore (Table.ingest table !snapshot ~epoch:rounds ~now:(float_of_int rounds) : bool);
      !ok
      &&
      match Table.row table owner with
      | Some s -> Snapshot.equal s !snapshot
      | None -> false)

let test_apply_delta_statuses () =
  let rng = Apor_util.Rng.make ~seed:7 in
  let t = Table.create ~n:4 ~owner:0 in
  let s0 = random_snapshot ~rng ~owner:2 ~n:4 in
  let entry = Entry.make ~latency_ms:9. ~loss:0. ~alive:true in
  let delta ~epoch changes = { Wire.Delta.owner = 2; epoch; changes } in
  check_bool "no row yet -> gap" true (Table.apply_delta t (delta ~epoch:1 [ (1, entry) ]) ~now:0. = `Gap);
  ignore (Table.ingest t s0 ~epoch:0 ~now:0. : bool);
  check_bool "skipped epoch -> gap" true
    (Table.apply_delta t (delta ~epoch:2 [ (1, entry) ]) ~now:1. = `Gap);
  check_bool "old epoch -> stale" true
    (Table.apply_delta t (delta ~epoch:0 [ (1, entry) ]) ~now:1. = `Stale);
  check_bool "id out of range -> malformed" true
    (Table.apply_delta t (delta ~epoch:1 [ (9, entry) ]) ~now:1. = `Malformed);
  check_bool "owner out of range -> malformed" true
    (Table.apply_delta t { Wire.Delta.owner = 11; epoch = 1; changes = [] } ~now:1.
    = `Malformed);
  (match Table.apply_delta t (delta ~epoch:1 [ (1, entry) ]) ~now:2. with
  | `Applied s ->
      check_float "entry updated" 9. (Snapshot.cost s Metric.Latency 1);
      check_bool "stored" true (Table.row_epoch t 2 = Some 1)
  | _ -> Alcotest.fail "next epoch must apply");
  check_bool "replay -> stale" true
    (Table.apply_delta t (delta ~epoch:1 [ (1, entry) ]) ~now:3. = `Stale)

let test_delta_smaller_than_snapshot_when_sparse () =
  let rng = Apor_util.Rng.make ~seed:3 in
  let n = 100 in
  let prev = random_snapshot ~rng ~owner:0 ~n in
  let next =
    Snapshot.with_entries prev
      [ (3, Entry.unreachable); (17, Entry.make ~latency_ms:5. ~loss:0. ~alive:true) ]
  in
  let d = Wire.Delta.of_snapshots ~epoch:1 ~prev ~next in
  check_int "two changes" 2 (List.length d.Wire.Delta.changes);
  check_int "payload" 16 (Wire.Delta.payload_bytes d);
  check_bool "far below 3n" true (Wire.Delta.payload_bytes d < Snapshot.payload_bytes next)

(* --- Overhead ------------------------------------------------------------------ *)

let test_overhead_sizes () =
  check_int "probe" 46 Overhead.probe_bytes;
  check_int "link state" (46 + 300) (Overhead.link_state_bytes ~n:100);
  check_int "multihop" (46 + 500) (Overhead.multihop_state_bytes ~n:100);
  check_int "recommendation" (46 + 80) (Overhead.recommendation_message_bytes ~entries:20);
  check_int "delta" (46 + 6 + 50) (Overhead.link_state_delta_bytes ~changes:10);
  check_int "resync" (46 + 2) Overhead.resync_request_bytes

(* --- Table ----------------------------------------------------------------------- *)

let snap ~owner ~n latency =
  Snapshot.create ~owner
    (Array.init n (fun j ->
         if j = owner then Entry.self
         else Entry.make ~latency_ms:latency ~loss:0. ~alive:true))

let ingest t s ~now = ignore (Table.ingest t s ~epoch:0 ~now : bool)

let test_table_ingest_and_row () =
  let t = Table.create ~n:4 ~owner:0 in
  Alcotest.(check (option int)) "no row yet" None (Option.map Snapshot.owner (Table.row t 2));
  check_bool "stored" true (Table.ingest t (snap ~owner:2 ~n:4 50.) ~epoch:0 ~now:10.);
  Alcotest.(check (option int)) "row stored" (Some 2) (Option.map Snapshot.owner (Table.row t 2));
  Alcotest.(check (option int)) "epoch stored" (Some 0) (Table.row_epoch t 2);
  Alcotest.(check (option (float 1e-9))) "age" (Some 5.) (Table.row_age t 2 ~now:15.)

let test_table_freshness_window () =
  let t = Table.create ~n:4 ~owner:0 in
  ingest t (snap ~owner:1 ~n:4 10.) ~now:0.;
  check_bool "fresh at 40" true (Table.fresh_row t 1 ~now:40. ~max_age:45. <> None);
  check_bool "stale at 50" true (Table.fresh_row t 1 ~now:50. ~max_age:45. = None)

let test_table_out_of_order_ignored () =
  let t = Table.create ~n:4 ~owner:0 in
  check_bool "first stored" true
    (Table.ingest t (snap ~owner:1 ~n:4 100.) ~epoch:1 ~now:20.);
  check_bool "older time rejected" false
    (Table.ingest t (snap ~owner:1 ~n:4 999.) ~epoch:1 ~now:10.);
  check_bool "older epoch rejected" false
    (Table.ingest t (snap ~owner:1 ~n:4 999.) ~epoch:0 ~now:30.);
  match Table.row t 1 with
  | None -> Alcotest.fail "row missing"
  | Some s -> check_float "newer kept" 100. (Snapshot.cost s Metric.Latency 2)

let test_table_drop_row () =
  let t = Table.create ~n:4 ~owner:0 in
  ingest t (snap ~owner:1 ~n:4 10.) ~now:0.;
  Table.drop_row t 1;
  check_bool "dropped" true (Table.row t 1 = None);
  Table.drop_row t 0;
  check_bool "owner row protected" true (Table.row t 0 <> None)

let test_table_known_rows () =
  let t = Table.create ~n:5 ~owner:2 in
  ingest t (snap ~owner:4 ~n:5 10.) ~now:0.;
  ingest t (snap ~owner:0 ~n:5 10.) ~now:0.;
  Alcotest.(check (list int)) "sorted" [ 0; 2; 4 ] (Table.known_rows t)

let test_table_anyone_reaches () =
  let t = Table.create ~n:4 ~owner:0 in
  check_bool "nobody yet" false (Table.anyone_reaches t 3);
  ingest t (snap ~owner:1 ~n:4 10.) ~now:0.;
  check_bool "row 1 reaches 3" true (Table.anyone_reaches t 3);
  (* a row from 3 itself must not count as evidence that 3 is reachable *)
  let t2 = Table.create ~n:4 ~owner:0 in
  ingest t2 (snap ~owner:3 ~n:4 10.) ~now:0.;
  check_bool "self-report ignored" false (Table.anyone_reaches t2 3)

let test_table_size_mismatch () =
  let t = Table.create ~n:4 ~owner:0 in
  Alcotest.check_raises "size" (Invalid_argument "Table: snapshot size differs from table size")
    (fun () -> ingest t (snap ~owner:1 ~n:5 10.) ~now:0.)

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "apor_linkstate"
    [
      ( "entry",
        [
          Alcotest.test_case "quantize rounds" `Quick test_entry_quantize_rounds;
          Alcotest.test_case "quantize saturates" `Quick test_entry_quantize_saturates;
          Alcotest.test_case "dead normalizes" `Quick test_entry_dead_normalizes;
          Alcotest.test_case "rejects bad values" `Quick test_entry_rejects_bad_values;
        ] );
      ( "metric",
        [
          Alcotest.test_case "latency" `Quick test_metric_latency;
          Alcotest.test_case "loss sensitive" `Quick test_metric_loss_sensitive;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "basics" `Quick test_snapshot_basics;
          Alcotest.test_case "self entry forced" `Quick test_snapshot_forces_self_entry;
          Alcotest.test_case "cost vector" `Quick test_snapshot_cost_vector;
          Alcotest.test_case "rejects bad owner" `Quick test_snapshot_rejects_bad_owner;
          Alcotest.test_case "wire bytes" `Quick test_snapshot_wire_bytes;
          Alcotest.test_case "size guard" `Quick test_snapshot_size_guard;
          qcheck snapshot_matches_reference;
          qcheck of_wire_matches_decode;
        ] );
      ( "wire",
        [
          Alcotest.test_case "entry examples" `Quick test_wire_entry_roundtrip_examples;
          Alcotest.test_case "entries roundtrip" `Quick test_wire_entries_roundtrip;
          Alcotest.test_case "entries reject truncated" `Quick test_wire_entries_reject_truncated;
          Alcotest.test_case "recommendations roundtrip" `Quick test_wire_recommendations_roundtrip;
          Alcotest.test_case "recommendations reject big ids" `Quick test_wire_recommendations_reject_big_id;
          Alcotest.test_case "recommendations reject truncated" `Quick test_wire_recommendations_reject_truncated;
          Alcotest.test_case "well-sized junk decodes" `Quick test_wire_decode_well_sized_junk;
          qcheck wire_entry_roundtrip;
          qcheck wire_recommendations_roundtrip;
          qcheck wire_decode_never_raises;
        ] );
      ( "delta",
        [
          Alcotest.test_case "apply_delta statuses" `Quick test_apply_delta_statuses;
          Alcotest.test_case "sparse delta is small" `Quick
            test_delta_smaller_than_snapshot_when_sparse;
          qcheck snapshot_diff_roundtrip;
          qcheck delta_wire_roundtrip;
          qcheck delta_sequence_converges;
        ] );
      ("overhead", [ Alcotest.test_case "sizes" `Quick test_overhead_sizes ]);
      ( "table",
        [
          Alcotest.test_case "ingest and row" `Quick test_table_ingest_and_row;
          Alcotest.test_case "freshness window" `Quick test_table_freshness_window;
          Alcotest.test_case "out of order ignored" `Quick test_table_out_of_order_ignored;
          Alcotest.test_case "drop row" `Quick test_table_drop_row;
          Alcotest.test_case "known rows" `Quick test_table_known_rows;
          Alcotest.test_case "anyone reaches" `Quick test_table_anyone_reaches;
          Alcotest.test_case "size mismatch" `Quick test_table_size_mismatch;
        ] );
    ]
