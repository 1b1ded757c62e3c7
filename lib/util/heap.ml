(* Classic array-backed binary heap.  Entries carry an insertion sequence
   number so that equal keys pop in FIFO order. *)

type 'a entry = { key : float; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

(* Slots at index >= size are dead and must not keep their last entry (and
   everything the entry's value captures) reachable for the rest of the
   heap's lifetime.  They are overwritten with an immediate 0, which the GC
   treats as an integer; the invariant that no code reads beyond [size]
   keeps this safe. *)
let hole () : 'a entry = Obj.magic 0

let create () = { data = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let entry_lt a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow t =
  let capacity = max 16 (2 * Array.length t.data) in
  let data = Array.make capacity (hole ()) in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

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

let rec sift_down data size i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < size && entry_lt data.(left) data.(i) then left else i in
  let smallest =
    if right < size && entry_lt data.(right) data.(smallest) then right
    else smallest
  in
  if smallest <> i then begin
    let tmp = data.(i) in
    data.(i) <- data.(smallest);
    data.(smallest) <- tmp;
    sift_down data size smallest
  end

let push t ~key value =
  if Float.is_nan key then invalid_arg "Heap.push: NaN key";
  let entry = { key; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.data then grow t;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t.data (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t.data t.size 0
    end;
    (* Release the vacated slot, or the popped entry stays reachable until
       a later push happens to land on it. *)
    t.data.(t.size) <- hole ();
    Some (top.key, top.value)
  end

let peek t = if t.size = 0 then None else Some (t.data.(0).key, t.data.(0).value)

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i).value
  done;
  !acc

let clear t =
  t.data <- [||];
  t.size <- 0
