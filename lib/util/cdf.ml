type t = float array (* sorted ascending *)

let of_list = function
  | [] -> invalid_arg "Cdf.of_list: empty sample list"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      a

let size = Array.length

(* Index of the first element > x, by binary search. *)
let upper_bound t x =
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.(mid) <= x then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length t)

let count_le t x = upper_bound t x
let fraction_le t x = float_of_int (count_le t x) /. float_of_int (Array.length t)

let value_at t q =
  if q < 0. || q > 1. then invalid_arg "Cdf.value_at: q outside [0,1]";
  let n = Array.length t in
  let k = int_of_float (ceil (q *. float_of_int n)) in
  t.(max 0 (min (n - 1) (k - 1)))

let rows t ~xs = List.map (fun x -> (x, fraction_le t x)) xs

let steps t =
  let n = Array.length t in
  let rec go i acc =
    if i >= n then List.rev acc
    else begin
      let v = t.(i) in
      let j = upper_bound t v in
      go j ((v, j) :: acc)
    end
  in
  go 0 []
