type t = Random.State.t

(* A stream is identified by the root seed and the chain of split labels.
   Hashing the label into fresh seed material gives independent streams
   without consuming draws from the parent. *)

let make ~seed = Random.State.make [| seed; 0x6f766572; 0x6c6179 |]

let split t label =
  let h = Hashtbl.hash label in
  let a = Random.State.bits t in
  (* Mix the parent's identity in via one draw from a *copy*, so splitting
     does not advance the parent stream. *)
  ignore a;
  let copy = Random.State.copy t in
  let s1 = Random.State.bits copy in
  let s2 = Random.State.bits copy in
  Random.State.make [| h; s1; s2; 0x73706c69 |]

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.int t bound

let float t bound = Random.State.float t bound
let bool t = Random.State.bool t

let bernoulli t ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else Random.State.float t 1.0 < p

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. Random.State.float t 1.0 in
  -.mean *. log u

let gaussian t ~mean ~stddev =
  let u1 = 1.0 -. Random.State.float t 1.0 in
  let u2 = Random.State.float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(Random.State.int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (Random.State.int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
