(* Benchmark worker: runs one phase of one workload in this process and
   prints one JSON line.  run.py starts a fresh process per phase and
   turns the lines into the benchmark's result; see perfbench/NOTES.md.

     bench.exe --workload scale|joins|loopback --seed N --seconds S
               --mode setup|measure|traced|oracle|codecs *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload scale|joins|loopback --seed N --seconds S \
     --mode setup|measure|traced|oracle|codecs";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" and mode = get "mode" in
  let seed = int "seed" and seconds = int "seconds" in
  let sim spec =
    let mode, setup_only =
      match mode with
      | "setup" -> (Sim.Measure, true)
      | "measure" -> (Sim.Measure, false)
      | "traced" -> (Sim.Traced, false)
      | "oracle" -> (Sim.Oracle, false)
      | _ -> usage ()
    in
    Sim.run ~spec ~seed ~mode ~setup_only
  in
  let seconds_f = float_of_int seconds in
  match (workload, mode) with
  | ("scale" | "joins" | "loopback"), "codecs" ->
      let n =
        match workload with
        | "scale" -> Sim.scale_nodes
        | "joins" -> Sim.joins_codec_nodes
        | _ -> Loopback.nodes
      in
      Common.print_json (Common.Obj [ ("layers", Common.Obj (Codecs.run ~n ~budget:0.05)) ])
  | "scale", _ -> sim (Sim.scale ~seconds:seconds_f)
  | "joins", _ -> sim (Sim.joins ~seconds:seconds_f)
  | "loopback", ("setup" | "measure" | "traced") ->
      Loopback.run ~seed ~seconds ~traced:(mode = "traced") ~setup_only:(mode = "setup")
  | _ -> usage ()
