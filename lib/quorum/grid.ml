open Apor_util

(* Four integers are the whole grid.  Every query is arithmetic on the
   row-major positions [id = row * cols + col], so a node holds O(1) words
   of quorum state however large the overlay is. *)
type t = { n : int; rows : int; cols : int; last_row_length : int }

let isqrt n =
  (* floor (sqrt n) computed exactly, avoiding float edge cases *)
  let rec fix s = if (s + 1) * (s + 1) <= n then fix (s + 1) else s in
  fix (max 0 (int_of_float (sqrt (float_of_int n)) - 2))

let shape n =
  let s = isqrt n in
  if s * s = n then (s, s)
  else if n <= (s * s) + s then ((n + s - 1) / s, s) (* a < 0.5: cols = floor sqrt *)
  else (s + 1, s + 1) (* a >= 0.5: square ceil grid *)

let build n =
  if n < 1 || n > Nodeid.max_nodes then
    invalid_arg "Grid.build: n outside [1, Nodeid.max_nodes]";
  let rows, cols = shape n in
  { n; rows; cols; last_row_length = n - ((rows - 1) * cols) }

let size t = t.n
let rows t = t.rows
let cols t = t.cols
let last_row_length t = t.last_row_length
let is_complete t = t.last_row_length = t.cols

let check_id t id =
  if id < 0 || id >= t.n then invalid_arg "Grid: node id out of range"

let position t id =
  check_id t id;
  (id / t.cols, id mod t.cols)

let node_at t ~row ~col =
  if row < 0 || col < 0 || row >= t.rows || col >= t.cols then None
  else begin
    let id = (row * t.cols) + col in
    if id < t.n then Some id else None
  end

let row_members t row =
  List.filter_map (fun col -> node_at t ~row ~col) (List.init t.cols Fun.id)

let col_members t col =
  List.filter_map (fun row -> node_at t ~row ~col) (List.init t.rows Fun.id)

(* Occupied cells of row [r] and of column [c]. *)
let row_length t r = if r = t.rows - 1 then t.last_row_length else t.cols
let col_height t c = if c < t.last_row_length then t.rows else t.rows - 1

(* The paper's extra assignments, one direction: [a] is the last-row node
   of column [c], and [b] sits in complete row [c] at a column [j >= k]
   beyond the last row's end — a node that lost its column's last-row
   member to a blank cell.  Never true on a complete grid ([j < cols]). *)
let extra_pair t a b =
  let last = t.rows - 1 in
  a / t.cols = last
  &&
  let c = a mod t.cols in
  c < last && b / t.cols = c && b mod t.cols >= t.last_row_length

(* [is_rendezvous_for] on ids already known to be in range. *)
let serves t server client =
  server <> client
  && (server / t.cols = client / t.cols
     || server mod t.cols = client mod t.cols
     || (t.last_row_length < t.cols
        && (extra_pair t server client || extra_pair t client server)))

(* Calls [f] on every server of [id] in descending order, so consing the
   calls yields the ascending list.  It walks [id]'s column from the
   bottom: first the last-row partner of an upper-right node (the largest
   id), then each column-mate, expanding [id]'s own row in place and, for
   a last-row [id] in column [c], row [c]'s extra partners just before
   row [c]'s column-mate (they lie between it and row [c + 1]'s). *)
let iter_servers_desc t id f =
  let cols = t.cols and k = t.last_row_length and last = t.rows - 1 in
  let r = id / cols and c = id mod cols in
  if r < last && c >= k && r < k then f ((last * cols) + r);
  for i = col_height t c - 1 downto 0 do
    if i = r then
      for j = row_length t r - 1 downto 0 do
        if j <> c then f ((r * cols) + j)
      done
    else begin
      if r = last && i = c then
        for j = cols - 1 downto k do
          f ((c * cols) + j)
        done;
      f ((i * cols) + c)
    end
  done

(* The extra partners of [id], in no particular order. *)
let iter_extras t id f =
  let cols = t.cols and k = t.last_row_length and last = t.rows - 1 in
  let r = id / cols and c = id mod cols in
  if r = last then begin
    if c < last then
      for j = k to cols - 1 do
        f ((c * cols) + j)
      done
  end
  else if c >= k && r < k then f ((last * cols) + r)

let rendezvous_servers t id =
  check_id t id;
  let acc = ref [] in
  iter_servers_desc t id (fun s -> acc := s :: !acc);
  !acc

let rendezvous_clients = rendezvous_servers

let is_rendezvous_for t ~server ~client =
  check_id t server;
  check_id t client;
  serves t server client

(* Off a shared row or column, a common server of [i] and [j] lies in
   [i]'s row and [j]'s column (crossing cell [(r_i, c_j)]), in [i]'s
   column and [j]'s row (crossing cell [(r_j, c_i)]), or is an extra
   partner of one of the pair; rows and columns of distinct lines do not
   meet otherwise.  On a shared line the common servers are the rest of
   that line plus extras, O(sqrt n) of them, so one side's servers are
   filtered instead. *)
let common_rendezvous t i j =
  check_id t i;
  check_id t j;
  let cols = t.cols in
  let ri = i / cols and ci = i mod cols and rj = j / cols and cj = j mod cols in
  let acc = ref [] in
  if ri = rj || ci = cj then begin
    iter_servers_desc t i (fun s -> if serves t s j then acc := s :: !acc);
    !acc
  end
  else begin
    let add = function Some s -> acc := s :: !acc | None -> () in
    add (node_at t ~row:ri ~col:cj);
    add (node_at t ~row:rj ~col:ci);
    if t.last_row_length < cols then begin
      iter_extras t i (fun e -> if serves t e j then acc := e :: !acc);
      iter_extras t j (fun e -> if serves t e i then acc := e :: !acc)
    end;
    List.sort_uniq Int.compare !acc
  end

let rec insert x = function
  | y :: rest when y < x -> y :: insert x rest
  | l -> x :: l

(* The relation is symmetric, so [i] serves [j] exactly when [j] serves
   [i]; neither is its own server, so neither is already in [common]. *)
let connecting t i j =
  let common = common_rendezvous t i j in
  if serves t i j then insert i (insert j common) else common

let failover_candidates t ~dst = rendezvous_servers t dst

(* Node 0's row and column are both full, and an extra assignment only
   ever stands in for a column-mate or row-mate its holder lost to a blank
   cell, so no node exceeds node 0's degree. *)
let max_rendezvous_degree t = t.rows + t.cols - 2

let verify t =
  let ( let* ) r f = Result.bind r f in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* symmetry: R_i = C_i as a relation *)
  let* () =
    let asymmetric = ref None in
    for i = 0 to t.n - 1 do
      List.iter
        (fun s ->
          if not (is_rendezvous_for t ~server:i ~client:s) then
            if !asymmetric = None then asymmetric := Some (i, s))
        (rendezvous_servers t i)
    done;
    match !asymmetric with
    | Some (i, s) -> fail "asymmetric assignment: %d serves %d but not conversely" s i
    | None -> Ok ()
  in
  (* cover: every pair has a connecting node *)
  let* () =
    let missing = ref None in
    for i = 0 to t.n - 1 do
      for j = i + 1 to t.n - 1 do
        if connecting t i j = [] && !missing = None then missing := Some (i, j)
      done
    done;
    match !missing with
    | Some (i, j) -> fail "pair (%d, %d) has no connecting rendezvous node" i j
    | None -> Ok ()
  in
  (* balance: Theorem 1's 2 * ceil(sqrt n) bound on degree, counted from
     the server lists rather than taken from the closed form *)
  let bound = 2 * t.rows in
  let worst = ref 0 in
  for i = 0 to t.n - 1 do
    worst := max !worst (List.length (rendezvous_servers t i))
  done;
  if !worst > bound then fail "rendezvous degree %d exceeds 2*rows = %d" !worst bound
  else Ok ()

let pp ppf t =
  let width = String.length (string_of_int t.n) in
  Format.pp_open_vbox ppf 0;
  for row = 0 to t.rows - 1 do
    if row > 0 then Format.pp_print_cut ppf ();
    for col = 0 to t.cols - 1 do
      if col > 0 then Format.pp_print_string ppf " ";
      match node_at t ~row ~col with
      | Some id -> Format.fprintf ppf "%*d" width id
      | None -> Format.fprintf ppf "%*s" width "."
    done
  done;
  Format.pp_close_box ppf ()
