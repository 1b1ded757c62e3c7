open Apor_util

(* [exclusive] records whether this table holds the only reference to
   [snapshot].  Snapshots arriving in messages are shared objects in the
   emulation (the sender and every other receiver hold the same pointer),
   so they are never exclusive; the copy made while applying a delta is. *)
type row = {
  mutable snapshot : Snapshot.t;
  mutable received_at : float;
  mutable epoch : int;
  mutable exclusive : bool;
}

type t = { n : int; owner : Nodeid.t; rows : row option array }

let create ~n ~owner =
  if n < 1 then invalid_arg "Table.create: n must be positive";
  if owner < 0 || owner >= n then invalid_arg "Table.create: owner outside [0, n)";
  let rows = Array.make n None in
  let dead = Array.make n Entry.unreachable in
  rows.(owner) <-
    Some
      {
        snapshot = Snapshot.create ~owner dead;
        received_at = neg_infinity;
        epoch = -1;
        exclusive = false;
      };
  { n; owner; rows }

let n t = t.n
let owner t = t.owner

let check_size t snapshot =
  if Snapshot.size snapshot <> t.n then
    invalid_arg "Table: snapshot size differs from table size"

let set_own_row t snapshot ~epoch ~now =
  check_size t snapshot;
  if Snapshot.owner snapshot <> t.owner then
    invalid_arg "Table.set_own_row: snapshot not owned by table owner";
  t.rows.(t.owner) <- Some { snapshot; received_at = now; epoch; exclusive = false }

let ingest t snapshot ~epoch ~now =
  check_size t snapshot;
  let id = Snapshot.owner snapshot in
  match t.rows.(id) with
  | Some stored when stored.received_at > now || epoch < stored.epoch ->
      false (* out-of-order delivery: a newer copy is already stored *)
  | Some _ | None ->
      t.rows.(id) <- Some { snapshot; received_at = now; epoch; exclusive = false };
      true

let apply_delta t (delta : Wire.Delta.t) ~now =
  if delta.Wire.Delta.owner < 0 || delta.Wire.Delta.owner >= t.n then `Malformed
  else if
    List.exists (fun (id, _) -> id < 0 || id >= t.n) delta.Wire.Delta.changes
  then `Malformed
  else begin
    match t.rows.(delta.Wire.Delta.owner) with
    | None -> `Gap
    | Some stored ->
        if delta.Wire.Delta.epoch <= stored.epoch then `Stale
        else if delta.Wire.Delta.epoch > stored.epoch + 1 then `Gap
        else begin
          (* The full-row copy in [Wire.Delta.apply] is the delta path's
             dominant cost at scale: copy a shared row once, then mutate
             the private copy in place on every later delta. *)
          if stored.exclusive then
            Snapshot.overwrite stored.snapshot delta.Wire.Delta.changes
          else begin
            stored.snapshot <- Wire.Delta.apply delta stored.snapshot;
            stored.exclusive <- true
          end;
          stored.received_at <- now;
          stored.epoch <- delta.Wire.Delta.epoch;
          `Applied stored.snapshot
        end
  end

let row t i = Option.map (fun r -> r.snapshot) t.rows.(i)

let row_epoch t i = Option.map (fun r -> r.epoch) t.rows.(i)

let row_age t i ~now = Option.map (fun r -> now -. r.received_at) t.rows.(i)

let fresh_row t i ~now ~max_age =
  match t.rows.(i) with
  | Some r when now -. r.received_at <= max_age -> Some r.snapshot
  | Some _ | None -> None

let drop_row t i = if i <> t.owner then t.rows.(i) <- None

let known_rows t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.rows.(i) <> None then acc := i :: !acc
  done;
  !acc

let anyone_reaches t dst =
  Array.exists
    (function
      | Some { snapshot; _ } ->
          Snapshot.owner snapshot <> dst && Snapshot.reaches snapshot dst
      | None -> false)
    t.rows
