open Apor_quorum
open Apor_linkstate

type t = {
  dist : float array array;
  sec : int array array; (* second node on best path; -1 = none *)
  iterations : int;
}

type stats = { iterations : int; messages_sent : int array; bytes_sent : int array }

let default_iterations n =
  let rec go bound t = if bound >= n - 1 then t else go (2 * bound) (t + 1) in
  max 1 (go 1 0)

let run ?iterations ~grid m =
  let n = Costmat.size m in
  if Grid.size grid <> n then invalid_arg "Multihop.run: grid and matrix sizes differ";
  if not (Costmat.is_symmetric m) then
    invalid_arg "Multihop.run: asymmetric matrix (paper assumes symmetric costs)";
  let iterations =
    match iterations with
    | None -> default_iterations n
    | Some t when t >= 1 -> t
    | Some _ -> invalid_arg "Multihop.run: iterations must be >= 1"
  in
  let messages_sent = Array.make n 0 in
  let bytes_sent = Array.make n 0 in
  let dist = Array.init n (fun i -> Costmat.row m i) in
  let sec =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then -1 else if Float.is_finite dist.(i).(j) then j else -1))
  in
  let dist = ref dist and sec = ref sec in
  (* One doubling iteration: from tables optimal over <= L edges to tables
     optimal over <= 2L edges.  All reads go to the previous tables. *)
  let iterate () =
    let old_dist = !dist and old_sec = !sec in
    let new_dist = Array.map Array.copy old_dist in
    let new_sec = Array.map Array.copy old_sec in
    let improve i j cost first =
      if cost < new_dist.(i).(j) then begin
        new_dist.(i).(j) <- cost;
        new_sec.(i).(j) <- first
      end
    in
    (* Best meeting point h for i ~> h ~> j given both halves' tables;
       symmetric costs let j's outgoing table stand in for costs into j. *)
    let recommend i j =
      let di = old_dist.(i) and dj = old_dist.(j) in
      let best_h = ref j and best_c = ref di.(j) in
      for h = 0 to n - 1 do
        if h <> i && h <> j then begin
          let c = di.(h) +. dj.(h) in
          if c < !best_c then begin
            best_h := h;
            best_c := c
          end
        end
      done;
      let first = if !best_h = j then old_sec.(i).(j) else old_sec.(i).(!best_h) in
      (!best_c, first)
    in
    for k = 0 to n - 1 do
      let clients = Grid.rendezvous_clients grid k in
      (* Destinations served by k include k itself (needed when a pair's
         only connecting rendezvous is one of the pair). *)
      let dsts = k :: clients in
      let entries = List.length clients in
      List.iter
        (fun i ->
          (* round one: i's announcement to server k *)
          messages_sent.(i) <- messages_sent.(i) + 1;
          bytes_sent.(i) <- bytes_sent.(i) + Overhead.multihop_state_bytes ~n;
          (* round two: k's recommendations back to i *)
          messages_sent.(k) <- messages_sent.(k) + 1;
          bytes_sent.(k) <-
            bytes_sent.(k) + Overhead.recommendation_message_bytes ~entries
            + (2 * entries) (* the per-entry 2-byte path cost of Section 3 *);
          List.iter
            (fun j ->
              if j <> i then begin
                let cost, first = recommend i j in
                if first >= 0 then improve i j cost first
              end)
            dsts)
        clients
    done;
    (* Local pass: i holds each client s's announced table, so it can (a)
       run the full meeting-point scan towards s itself — covering pairs
       whose only connecting rendezvous is i — and (b) splice one-hop
       paths i ~> s ~> j towards everyone else. *)
    for i = 0 to n - 1 do
      List.iter
        (fun s ->
          let cost, first = recommend i s in
          if first >= 0 then improve i s cost first;
          let via = old_dist.(i).(s) in
          let first = old_sec.(i).(s) in
          if Float.is_finite via && first >= 0 then
            for j = 0 to n - 1 do
              if j <> i && j <> s then improve i j (via +. old_dist.(s).(j)) first
            done)
        (Grid.rendezvous_clients grid i)
    done;
    dist := new_dist;
    sec := new_sec
  in
  for _ = 1 to iterations do
    iterate ()
  done;
  ( { dist = !dist; sec = !sec; iterations },
    { iterations; messages_sent; bytes_sent } )

let max_path_edges (t : t) = 1 lsl t.iterations

let check t id = if id < 0 || id >= Array.length t.dist then invalid_arg "Multihop: id out of range"

let cost t ~src ~dst =
  check t src;
  check t dst;
  if src = dst then 0. else t.dist.(src).(dst)

let first_hop t ~src ~dst =
  check t src;
  check t dst;
  if src = dst then None
  else begin
    let s = t.sec.(src).(dst) in
    if s < 0 then None else Some s
  end

let path t ~src ~dst =
  check t src;
  check t dst;
  if src = dst then Some [ src ]
  else if t.sec.(src).(dst) < 0 then None
  else begin
    let n = Array.length t.dist in
    let rec walk at acc budget =
      if at = dst then List.rev (dst :: acc)
      else if budget = 0 then invalid_arg "Multihop.path: Sec pointer cycle"
      else begin
        let next = t.sec.(at).(dst) in
        if next < 0 then invalid_arg "Multihop.path: broken Sec chain"
        else walk next (at :: acc) (budget - 1)
      end
    in
    Some (walk src [] n)
  end
