open Apor_util

let one_hop_routes m =
  let n = Costmat.size m in
  let columns = Array.init n (fun j -> Costmat.column m j) in
  Array.init n (fun i ->
      let cost_from_src = Costmat.row m i in
      Array.init n (fun j ->
          if i = j then Best_hop.direct ~dst:i ~cost:0.
          else Best_hop.best ~src:i ~dst:j ~cost_from_src ~cost_to_dst:columns.(j)))

let one_hop_cost_matrix m =
  let routes = one_hop_routes m in
  Array.map (Array.map (fun (c : Best_hop.choice) -> c.cost)) routes

let dijkstra m ~src =
  let n = Costmat.size m in
  let dist = Array.make n infinity in
  let predecessor = Array.make n None in
  let visited = Array.make n false in
  let heap = Heap.create () in
  dist.(src) <- 0.;
  Heap.push heap ~key:0. src;
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
        if not visited.(u) then begin
          visited.(u) <- true;
          for v = 0 to n - 1 do
            if (not visited.(v)) && v <> u then begin
              let c = Costmat.get m u v in
              if d +. c < dist.(v) then begin
                dist.(v) <- d +. c;
                predecessor.(v) <- Some u;
                Heap.push heap ~key:dist.(v) v
              end
            end
          done;
          drain ()
        end
        else drain ()
  in
  drain ();
  (dist, predecessor)

let all_pairs_shortest m =
  Array.init (Costmat.size m) (fun src -> fst (dijkstra m ~src))

let limited_shortest m ~max_edges =
  if max_edges < 1 then invalid_arg "Fullmesh.limited_shortest: max_edges < 1";
  let n = Costmat.size m in
  let dist = Array.init n (fun i -> Costmat.row m i) in
  for i = 0 to n - 1 do
    dist.(i).(i) <- 0.
  done;
  let relax current =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 0.
            else begin
              let best = ref current.(i).(j) in
              for h = 0 to n - 1 do
                let c = current.(i).(h) +. Costmat.get m h j in
                if c < !best then best := c
              done;
              !best
            end))
  in
  let rec go edges current = if edges >= max_edges then current else go (edges + 1) (relax current) in
  go 1 dist
