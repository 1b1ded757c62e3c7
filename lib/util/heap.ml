(* Array-backed binary min-heap in three parallel arrays: keys unboxed in a
   float array, insertion sequence numbers (the FIFO tie-break among equal
   keys) and values.  Sifts carry the moving entry as arguments and shift
   a hole along the path, writing each displaced entry once. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Value slots at index >= size are dead and must not keep their last value
   (and everything it captures) reachable for the rest of the heap's
   lifetime.  They hold an immediate 0, which the GC treats as an integer;
   the invariant that no code reads beyond [size] keeps this safe.  The
   values array is only ever created from this hole, never from a value, so
   it is never a flat float array and the immediate is a valid element. *)
let hole () : 'a = Obj.magic 0

let create () = { keys = [||]; seqs = [||]; values = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

(* Does the entry at [i] order strictly before (key, seq)? *)
let[@inline] before t i key seq =
  let k = Array.unsafe_get t.keys i in
  k < key || (k = key && Array.unsafe_get t.seqs i < seq)

let[@inline] set t i key seq v =
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.values i v

let[@inline] move t ~src ~dst =
  set t dst (Array.unsafe_get t.keys src) (Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.values src)

let grow t =
  let capacity = max 16 (2 * Array.length t.keys) in
  let keys = Array.make capacity 0. and seqs = Array.make capacity 0 in
  let values = Array.make capacity (hole ()) in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.values <- values

(* Place (key, seq, v) at the hole [i] or above it. *)
let rec sift_up t i key seq v =
  let parent = (i - 1) / 2 in
  if i > 0 && not (before t parent key seq) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent key seq v
  end
  else set t i key seq v

(* Place (key, seq, v) at the hole [i] or below it. *)
let rec sift_down t i key seq v =
  let c = (2 * i) + 1 in
  if c >= t.size then set t i key seq v
  else begin
    let c =
      if c + 1 < t.size
         && before t (c + 1) (Array.unsafe_get t.keys c) (Array.unsafe_get t.seqs c)
      then c + 1
      else c
    in
    if before t c key seq then begin
      move t ~src:c ~dst:i;
      sift_down t c key seq v
    end
    else set t i key seq v
  end

let push t ~key value =
  if Float.is_nan key then invalid_arg "Heap.push: NaN key";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size = Array.length t.keys then grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) key seq value

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) and value = t.values.(0) in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then sift_down t 0 t.keys.(last) t.seqs.(last) t.values.(last);
    (* Release the vacated slot, or the popped value stays reachable until
       a later push happens to land on it. *)
    t.values.(last) <- hole ();
    Some (key, value)
  end

let peek t = if t.size = 0 then None else Some (t.keys.(0), t.values.(0))

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.values.(i)
  done;
  !acc

let clear t =
  t.keys <- [||];
  t.seqs <- [||];
  t.values <- [||];
  t.size <- 0
