open Apor_util

(* Stored as the wire bytes themselves: 3 bytes per entry, a big-endian
   u16 latency (0xFFFF dead) and a loss byte in 1/254 steps (0xFF dead),
   exactly the {!Wire} entry layout.  A full-mesh node holds n of these,
   so compactness is what keeps large emulations in memory.  Cells are
   canonical — every dead cell is (0xFFFF, 0xFF) and the owner's cell is
   (0, 0) — so byte equality is entry equality. *)
type t = { owner : Nodeid.t; cells : Bytes.t }

let cell_bytes = 3
let dead_latency = 0xFFFF
let dead_loss = 0xFF

let latency_at cells j = Bytes.get_uint16_be cells (cell_bytes * j)
let loss_at cells j = Bytes.get_uint8 cells ((cell_bytes * j) + 2)

let set_cell cells j ~latency ~loss =
  Bytes.set_uint16_be cells (cell_bytes * j) latency;
  Bytes.set_uint8 cells ((cell_bytes * j) + 2) loss

let set_dead cells j = set_cell cells j ~latency:dead_latency ~loss:dead_loss
let set_self cells j = set_cell cells j ~latency:0 ~loss:0

(* The rounding of [Wire.encode_entry] (and so of [Entry.quantize]):
   latency to whole milliseconds saturating at [Entry.max_latency_ms],
   loss to k/254 clamped at 254.  Out-of-range fields are truncated to
   their width as the encoder's byte writes truncate them, and a cell
   that then reads as dead is written as the canonical dead cell. *)
let pack cells j (e : Entry.t) =
  if not e.alive then set_dead cells j
  else begin
    let latency =
      (min Entry.max_latency_ms (int_of_float (Float.round e.latency_ms))) land 0xFFFF
    in
    let loss = (min 254 (int_of_float (Float.round (e.loss *. 254.)))) land 0xFF in
    if latency = dead_latency || loss = dead_loss then set_dead cells j
    else set_cell cells j ~latency ~loss
  end

let create ~owner entries =
  let n = Array.length entries in
  if owner < 0 || owner >= n then invalid_arg "Snapshot.create: owner outside table";
  let cells = Bytes.create (cell_bytes * n) in
  Array.iteri (fun j e -> if j = owner then set_self cells j else pack cells j e) entries;
  { owner; cells }

let of_wire ~owner bytes =
  let len = Bytes.length bytes in
  if len mod cell_bytes <> 0 then
    Error (Printf.sprintf "link-state payload length %d not a multiple of %d" len cell_bytes)
  else begin
    let n = len / cell_bytes in
    if owner < 0 || owner >= n then
      Error (Printf.sprintf "owner %d outside %d-entry snapshot" owner n)
    else begin
      let cells = Bytes.copy bytes in
      for j = 0 to n - 1 do
        if j = owner then set_self cells j
        else if latency_at cells j = dead_latency || loss_at cells j = dead_loss then
          set_dead cells j
      done;
      Ok { owner; cells }
    end
  end

let wire_bytes t = t.cells
let owner t = t.owner
let size t = Bytes.length t.cells / cell_bytes

let check t j =
  if j < 0 || j >= size t then invalid_arg "Snapshot: id out of range"

(* Canonical cells make the latency field alone decide liveness. *)
let alive t j = latency_at t.cells j <> dead_latency

let latency_ms t j = float_of_int (latency_at t.cells j)
let loss t j = float_of_int (loss_at t.cells j) /. 254.

let entry t j =
  check t j;
  if alive t j then { Entry.latency_ms = latency_ms t j; loss = loss t j; alive = true }
  else Entry.unreachable

let live_cost t metric j =
  match (metric : Metric.t) with
  | Metric.Latency -> latency_ms t j
  | Metric.Loss_sensitive _ ->
      Metric.cost metric { Entry.latency_ms = latency_ms t j; loss = loss t j; alive = true }

(* Unchecked: callers validate [j] once (a row's size is checked when it
   is stored).  One 16-bit load per cell, as [Bytes.get_uint16_be]. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external swap16 : int -> int = "%bswap16"

let unsafe_latency t j =
  let x = get16u t.cells (cell_bytes * j) in
  if Sys.big_endian then x else swap16 x

let unsafe_cost t metric j =
  if unsafe_latency t j <> dead_latency then live_cost t metric j else infinity

let cost t metric j =
  check t j;
  unsafe_cost t metric j

let cost_vector t metric = Array.init (size t) (unsafe_cost t metric)

let reaches t j =
  check t j;
  alive t j

let alive_count t =
  let count = ref 0 in
  for j = 0 to size t - 1 do
    if j <> t.owner && alive t j then incr count
  done;
  !count

let payload_bytes t = Bytes.length t.cells
let copy t = { owner = t.owner; cells = Bytes.copy t.cells }

let overwrite t changes =
  let n = size t in
  List.iter
    (fun (j, e) ->
      if j < 0 || j >= n then invalid_arg "Snapshot.overwrite: id out of range";
      if j = t.owner then set_self t.cells j else pack t.cells j e)
    changes

let with_entries t changes =
  let next = copy t in
  overwrite next changes;
  next

(* Runs once per node per routing tick over the whole row — compare the
   3-byte cells directly and allocate entries only for actual changes.
   Under [Latency] the loss byte is never read: canonical dead cells make
   the latency field alone decide liveness too.  The churn count rides in
   the same pass. *)
let diff_and_churn ~metric ~prev ~last ~next =
  if prev.owner <> next.owner || last.owner <> next.owner then
    invalid_arg "Snapshot.diff: owners differ";
  if size prev <> size next || size last <> size next then
    invalid_arg "Snapshot.diff: sizes differ";
  let loss_read = match metric with Metric.Latency -> false | Metric.Loss_sensitive _ -> true in
  let acc = ref [] and churn = ref 0 in
  for j = size prev - 1 downto 0 do
    if
      latency_at prev.cells j <> latency_at next.cells j
      || (loss_read && loss_at prev.cells j <> loss_at next.cells j)
    then acc := (j, entry next j) :: !acc;
    if latency_at last.cells j <> latency_at next.cells j || loss_at last.cells j <> loss_at next.cells j
    then incr churn
  done;
  (!acc, !churn)

let diff ~metric ~prev ~next = fst (diff_and_churn ~metric ~prev ~last:prev ~next)

let equal a b = a.owner = b.owner && Bytes.equal a.cells b.cells

let pp ppf t =
  Format.fprintf ppf "@[<h>snapshot(owner=%d" t.owner;
  for j = 0 to size t - 1 do
    Format.fprintf ppf ", %d:%a" j Entry.pp (entry t j)
  done;
  Format.fprintf ppf ")@]"
