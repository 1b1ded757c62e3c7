(* Calendar queue: a timing wheel of small per-bucket heaps plus a
   far-future overflow heap.

   The wheel covers [cur * width, (cur + nbuckets) * width); an entry whose
   key falls inside the window goes to the bucket of its absolute index
   floor (key / width) (slot = index mod nbuckets), entries beyond the
   window land in the overflow heap, and entries behind the window clamp
   into the cursor bucket.  Each bucket is itself a tiny binary heap
   ordered by (key, seq), so a pop inspects the cursor bucket's top — O(1)
   amortized against cursor advances — instead of sifting a heap of every
   pending event.

   Correctness never depends on *where* an entry was placed: the wheel
   invariant (every wheel entry's absolute index lies in [cur,
   cur + nbuckets), pops happen at the cursor) makes the first nonempty
   bucket hold the wheel minimum, and pop compares that against the
   overflow top.  The overflow is therefore free to hold anything —
   misplacement degrades performance, not order.

   Pop order is exactly ascending (key, seq): bit-identical to
   {!Heap}, including FIFO among equal keys — the property the simulator's
   determinism rests on.  The qcheck suite drives both structures with the
   same arbitrary interleavings and asserts equal pop sequences. *)

type 'a entry = { key : float; seq : int; value : 'a }

let entry_lt a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

(* A growable mini-heap.  Dead slots (>= len) are overwritten with an
   immediate 0 so popped entries become collectable; no code reads past
   [len]. *)
type 'a cell = { mutable data : 'a entry array; mutable len : int }

let hole () : 'a entry = Obj.magic 0
let cell_create () = { data = [||]; len = 0 }

let cell_grow c =
  let capacity = max 4 (2 * Array.length c.data) in
  let data = Array.make capacity (hole ()) in
  Array.blit c.data 0 data 0 c.len;
  c.data <- data

let rec sift_up data i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt data.(i) data.(parent) then begin
      let tmp = data.(i) in
      data.(i) <- data.(parent);
      data.(parent) <- tmp;
      sift_up data parent
    end
  end

let rec sift_down data len i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < len && entry_lt data.(left) data.(i) then left else i in
  let smallest =
    if right < len && entry_lt data.(right) data.(smallest) then right else smallest
  in
  if smallest <> i then begin
    let tmp = data.(i) in
    data.(i) <- data.(smallest);
    data.(smallest) <- tmp;
    sift_down data len smallest
  end

let cell_push c entry =
  if c.len = Array.length c.data then cell_grow c;
  c.data.(c.len) <- entry;
  c.len <- c.len + 1;
  sift_up c.data (c.len - 1)

let cell_pop c =
  let top = c.data.(0) in
  c.len <- c.len - 1;
  if c.len > 0 then begin
    c.data.(0) <- c.data.(c.len);
    sift_down c.data c.len 0
  end;
  c.data.(c.len) <- hole ();
  top

type 'a t = {
  mutable buckets : 'a cell array; (* length is a power of two *)
  mutable mask : int;              (* Array.length buckets - 1 *)
  mutable width : float;           (* bucket width in key units *)
  mutable inv_width : float;
  mutable cur : int;               (* absolute index of the cursor bucket *)
  mutable wheel_size : int;        (* entries in the wheel *)
  mutable overflow : 'a cell;      (* entries beyond the window *)
  mutable size : int;              (* wheel + overflow *)
  mutable next_seq : int;
  mutable last_key : float;        (* key of the last pop (nan before any) *)
  mutable gap_ewma : float;        (* mean inter-pop key gap (nan at start) *)
}

let initial_buckets = 16
let max_buckets = 1 lsl 22
let min_width = 1e-9
let max_width = 1e12

let fresh_buckets n = Array.init n (fun _ -> cell_create ())

let create () =
  {
    buckets = fresh_buckets initial_buckets;
    mask = initial_buckets - 1;
    width = 1.;
    inv_width = 1.;
    cur = 0;
    wheel_size = 0;
    overflow = cell_create ();
    size = 0;
    next_seq = 0;
    last_key = Float.nan;
    gap_ewma = Float.nan;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Insert into wheel or overflow under the current geometry.  All index
   arithmetic is guarded in float space first so absurd keys (huge
   magnitudes relative to the width) degrade into clamping or the
   overflow heap instead of overflowing the integer index. *)
let place t entry =
  let nbuckets = t.mask + 1 in
  let fid = Float.floor (entry.key *. t.inv_width) in
  if fid >= float_of_int (t.cur + nbuckets) then cell_push t.overflow entry
  else begin
    let slot =
      if fid <= float_of_int t.cur then t.cur
      else begin
        let id = int_of_float fid in
        if id < t.cur then t.cur
        else if id >= t.cur + nbuckets then t.cur + nbuckets - 1
        else id
      end
    in
    cell_push t.buckets.(slot land t.mask) entry;
    t.wheel_size <- t.wheel_size + 1
  end

(* Rebuild with a bucket count tracking the population and a width
   tracking the observed inter-pop gap, then re-place every entry
   (sequence numbers ride along, so order is untouched).  Entries parked
   in the overflow get a fresh chance to land in the wheel. *)
let retune t =
  let entries = Array.make t.size (hole ()) in
  let k = ref 0 in
  let take (c : 'a cell) =
    for i = 0 to c.len - 1 do
      entries.(!k) <- c.data.(i);
      incr k
    done
  in
  Array.iter take t.buckets;
  take t.overflow;
  let nbuckets =
    let rec fit n = if n >= t.size || n >= max_buckets then n else fit (2 * n) in
    fit initial_buckets
  in
  if Float.is_finite t.gap_ewma && t.gap_ewma > 0. then
    t.width <- Float.min max_width (Float.max min_width (4. *. t.gap_ewma));
  t.inv_width <- 1. /. t.width;
  t.buckets <- fresh_buckets nbuckets;
  t.mask <- nbuckets - 1;
  t.overflow <- cell_create ();
  t.wheel_size <- 0;
  (* Anchor the window at the pending minimum. *)
  let min_key = Array.fold_left (fun acc e -> Float.min acc e.key) infinity entries in
  let fmin = Float.floor (min_key *. t.inv_width) in
  t.cur <-
    (if Float.abs fmin < 1e18 && Float.is_finite fmin then int_of_float fmin else 0);
  Array.iter (fun e -> place t e) entries

let push t ~key value =
  if Float.is_nan key then invalid_arg "Calqueue.push: NaN key";
  let entry = { key; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size = 0 then begin
    (* Empty queue: re-anchor the window on the incoming key. *)
    let fid = Float.floor (key *. t.inv_width) in
    if Float.abs fid < 1e18 && Float.is_finite fid then t.cur <- int_of_float fid
  end;
  t.size <- t.size + 1;
  place t entry;
  if t.size > 4 * (t.mask + 1) && t.mask + 1 < max_buckets then retune t

(* Advance the cursor to the first nonempty bucket.  Only called with
   wheel_size > 0, so this terminates within one rotation; entries ahead
   of the cursor all carry absolute indices in [cur, cur + nbuckets), so
   scanning slots in order visits indices in order and the first hit
   holds the wheel minimum. *)
let rec cursor_bucket t =
  let b = t.buckets.(t.cur land t.mask) in
  if b.len > 0 then b
  else begin
    t.cur <- t.cur + 1;
    cursor_bucket t
  end

let note_pop t key =
  (if Float.is_finite t.last_key then begin
     let gap = Float.max 0. (key -. t.last_key) in
     t.gap_ewma <-
       (if Float.is_finite t.gap_ewma then (0.875 *. t.gap_ewma) +. (0.125 *. gap)
        else gap)
   end);
  t.last_key <- key

let pop t =
  if t.size = 0 then None
  else begin
    let e =
      if t.wheel_size = 0 then cell_pop t.overflow
      else begin
        let b = cursor_bucket t in
        if t.overflow.len > 0 && entry_lt t.overflow.data.(0) b.data.(0) then
          cell_pop t.overflow
        else begin
          t.wheel_size <- t.wheel_size - 1;
          cell_pop b
        end
      end
    in
    t.size <- t.size - 1;
    note_pop t e.key;
    if t.size < (t.mask + 1) / 8 && t.mask + 1 > initial_buckets then retune t;
    Some (e.key, e.value)
  end

let peek t =
  if t.size = 0 then None
  else begin
    let e =
      if t.wheel_size = 0 then t.overflow.data.(0)
      else begin
        let b = cursor_bucket t in
        if t.overflow.len > 0 && entry_lt t.overflow.data.(0) b.data.(0) then
          t.overflow.data.(0)
        else b.data.(0)
      end
    in
    Some (e.key, e.value)
  end

let fold f acc t =
  let cell acc c =
    let acc = ref acc in
    for i = 0 to c.len - 1 do
      acc := f !acc c.data.(i).value
    done;
    !acc
  in
  cell (Array.fold_left cell acc t.buckets) t.overflow

let clear t =
  t.buckets <- fresh_buckets initial_buckets;
  t.mask <- initial_buckets - 1;
  t.width <- 1.;
  t.inv_width <- 1.;
  t.cur <- 0;
  t.wheel_size <- 0;
  t.overflow <- cell_create ();
  t.size <- 0;
  t.last_key <- Float.nan;
  t.gap_ewma <- Float.nan
