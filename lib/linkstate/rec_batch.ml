open Apor_util

(* An 8-byte big-endian epoch, then the 4-byte (dst, hop) pairs. *)
type t = Bytes.t

let dropped = -1
let max_id = 0xFFFE
let header = 8
let pair_bytes = Wire.recommendation_bytes

let length t = (Bytes.length t - header) / pair_bytes
let epoch_of t = Int64.to_int (Bytes.get_int64_be t 0)
let epoch = epoch_of
let set_epoch t e = Bytes.set_int64_be t 0 (Int64.of_int e)
let dst_at t i = Bytes.get_uint16_be t (header + (i * pair_bytes))
let hop_at t i = Bytes.get_uint16_be t (header + (i * pair_bytes) + 2)
let set_hop_at t i hop = Bytes.set_uint16_be t (header + (i * pair_bytes) + 2) hop

let set_at t i dst hop =
  Bytes.set_uint16_be t (header + (i * pair_bytes)) dst;
  set_hop_at t i hop

let valid_id id = id >= 0 && id <= max_id

(* Strictly ascending destinations, ids in range; [hop_ok] admits
   [dropped] in a delta's changes. *)
let rec well_formed ~hop_ok prev = function
  | [] -> true
  | (dst, hop) :: rest -> dst > prev && valid_id dst && hop_ok hop && well_formed ~hop_ok dst rest

let make ~epoch n =
  let t = Bytes.create (header + (pair_bytes * n)) in
  set_epoch t epoch;
  t

let of_entries ~epoch entries =
  if not (well_formed ~hop_ok:valid_id (-1) entries) then None
  else begin
    let t = make ~epoch (List.length entries) in
    List.iteri (fun i (dst, hop) -> set_at t i dst hop) entries;
    Some t
  end

let entries t = List.init (length t) (fun i -> (dst_at t i, hop_at t i))

let iter t f =
  for i = 0 to length t - 1 do
    f (dst_at t i) (hop_at t i)
  done

(* Position of [dst], or -1. *)
let index t dst =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let d = dst_at t mid in
      if d = dst then mid else if d < dst then search (mid + 1) hi else search lo mid
  in
  search 0 (length t)

let hop t dst =
  let i = index t dst in
  if i < 0 then None else Some (hop_at t i)

(* [base]'s pairs with [changes] laid over them, written straight into a
   batch of the resulting size. *)
let apply base ~epoch changes =
  let nb = length base in
  let size =
    List.fold_left
      (fun size (dst, hop) ->
        match (index base dst >= 0, hop = dropped) with
        | true, true -> size - 1
        | false, false -> size + 1
        | true, false | false, true -> size)
      nb changes
  in
  let t = make ~epoch size in
  let rec go i k changes =
    match changes with
    | (dst, hop) :: rest when i >= nb || dst <= dst_at base i ->
        let i = if i < nb && dst = dst_at base i then i + 1 else i in
        if hop = dropped then go i k rest
        else begin
          set_at t k dst hop;
          go i (k + 1) rest
        end
    | _ when i < nb ->
        set_at t k (dst_at base i) (hop_at base i);
        go (i + 1) (k + 1) changes
    | _ -> ()
  in
  go 0 0 changes;
  t

let receive ~held ~epoch ~base changes =
  match held with
  | Some h when epoch <= epoch_of h -> `Stale
  | _ when not (well_formed ~hop_ok:(fun h -> h = dropped || valid_id h) (-1) changes) ->
      `Malformed
  | Some h when epoch_of h >= base ->
      if List.for_all (fun (dst, hop) -> hop <> dropped && index h dst >= 0) changes then begin
        (* only moved hops, the common case: rewrite [h] in place *)
        set_epoch h epoch;
        List.iter (fun (dst, hop) -> set_hop_at h (index h dst) hop) changes;
        `Applied h
      end
      else `Applied (apply h ~epoch changes)
  | Some _ | None -> `Gap

module Sent = struct
  (* [fresh] ascending; [hops] a |fresh|² matrix of u16 hops whose row r
     is the batch of the client at position r over the other positions
     (the diagonal is unused); [since.(r)] the epoch from which that batch
     has been sent unchanged, -1 for a row not recorded. *)
  type t = { epoch : int; fresh : Nodeid.t array; hops : Bytes.t; since : int array }

  let create ~epoch fresh =
    let fresh = Array.of_list fresh in
    let f = Array.length fresh in
    { epoch; fresh; hops = Bytes.create (2 * f * f); since = Array.make f (-1) }

  let epoch t = t.epoch

  let position t rank =
    let rec search lo hi =
      if lo >= hi then -1
      else
        let mid = (lo + hi) / 2 in
        if t.fresh.(mid) = rank then mid
        else if t.fresh.(mid) < rank then search (mid + 1) hi
        else search lo mid
    in
    search 0 (Array.length t.fresh)

  let cell t r c = Bytes.get_uint16_be t.hops (2 * ((r * Array.length t.fresh) + c))

  let entries t ~client =
    let r = position t client in
    if r < 0 || t.since.(r) < 0 then None
    else
      let rec row c acc =
        if c < 0 then acc else row (c - 1) (if c = r then acc else (t.fresh.(c), cell t r c) :: acc)
      in
      Some (row (Array.length t.fresh - 1) [])

  (* The changes from [prev]'s row [pr] to [t]'s row [r]: one merge of
     the two fresh arrays, skipping each row's own client. *)
  let changes ~prev ~pr t ~r =
    let pf = Array.length prev.fresh and f = Array.length t.fresh in
    let rec go pc c acc =
      if pc = pr then go (pc + 1) c acc
      else if c = r then go pc (c + 1) acc
      else if pc < pf && (c >= f || prev.fresh.(pc) < t.fresh.(c)) then
        go (pc + 1) c ((prev.fresh.(pc), dropped) :: acc)
      else if c < f && (pc >= pf || t.fresh.(c) < prev.fresh.(pc)) then
        go pc (c + 1) ((t.fresh.(c), cell t r c) :: acc)
      else if c < f then
        go (pc + 1) (c + 1)
          (if cell prev pr pc = cell t r c then acc else (t.fresh.(c), cell t r c) :: acc)
      else List.rev acc
    in
    go 0 0 []

  let record t ~prev ~client hop_of =
    let f = Array.length t.fresh and r = position t client in
    if r < 0 then invalid_arg "Rec_batch.Sent.record: client not among the fresh ranks";
    for c = 0 to f - 1 do
      if c <> r then begin
        let hop = hop_of t.fresh.(c) in
        if not (valid_id hop) then invalid_arg "Rec_batch.Sent.record: hop outside [0, 0xFFFE]";
        Bytes.set_uint16_be t.hops (2 * ((r * f) + c)) hop
      end
    done;
    let sent =
      match prev with
      | None -> None
      | Some prev ->
          let pr = position prev client in
          if pr < 0 || prev.since.(pr) < 0 then None
          else
            let changed = changes ~prev ~pr t ~r in
            if
              Overhead.recommendation_delta_bytes ~changes:(List.length changed)
              < Overhead.recommendation_message_bytes ~entries:(f - 1)
            then Some (prev.since.(pr), changed)
            else None
    in
    t.since.(r) <- (match sent with Some (since, []) -> since | Some _ | None -> t.epoch);
    sent
end
