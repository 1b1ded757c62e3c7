type t = { header : string list; mutable rows : string list list }

let create ~header =
  if header = [] then invalid_arg "Texttable.create: empty header";
  { header; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Texttable.add_row: row width differs from header";
  t.rows <- row :: t.rows

let add_float_row t ?(precision = 2) row =
  add_row t (List.map (Printf.sprintf "%.*f" precision) row)

let looks_numeric s =
  s <> ""
  && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e') s

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
  let width col =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row col))) 0 all
  in
  let widths = List.init ncols width in
  let pad col s =
    let w = List.nth widths col in
    let padding = String.make (w - String.length s) ' ' in
    if looks_numeric s then padding ^ s else s ^ padding
  in
  let render_row row = String.concat "  " (List.mapi pad row) in
  let rule = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (render_row t.header :: rule :: List.map render_row rows)

let print t = print_endline (render t)
