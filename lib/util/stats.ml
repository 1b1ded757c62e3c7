let require_nonempty name = function
  | [] -> invalid_arg (name ^ ": empty sample list")
  | _ :: _ -> ()

let mean xs =
  require_nonempty "Stats.mean" xs;
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let mean_array a =
  if Array.length a = 0 then invalid_arg "Stats.mean_array: empty array";
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let stddev xs =
  require_nonempty "Stats.stddev" xs;
  let m = mean xs in
  let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
  sqrt (sq /. float_of_int (List.length xs))

let minimum xs =
  require_nonempty "Stats.minimum" xs;
  List.fold_left min infinity xs

let maximum xs =
  require_nonempty "Stats.maximum" xs;
  List.fold_left max neg_infinity xs

let percentile p xs =
  require_nonempty "Stats.percentile" xs;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0,100]";
  let sorted = Array.of_list xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile 50. xs

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p97 : float;
  max : float;
}

let summarize = function
  | [] -> None
  | xs ->
      Some
        {
          count = List.length xs;
          mean = mean xs;
          stddev = stddev xs;
          min = minimum xs;
          p50 = percentile 50. xs;
          p97 = percentile 97. xs;
          max = maximum xs;
        }

module Online = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count

  let require t name = if t.count = 0 then invalid_arg ("Stats.Online." ^ name ^ ": empty")

  let mean t =
    require t "mean";
    t.mean

  let variance t =
    require t "variance";
    t.m2 /. float_of_int t.count

  let min t =
    require t "min";
    t.min

  let max t =
    require t "max";
    t.max
end
