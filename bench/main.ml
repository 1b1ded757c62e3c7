(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the index).

   Usage:
     dune exec bench/main.exe                   # everything (full durations)
     dune exec bench/main.exe -- --quick        # shorter runs, same shapes
     dune exec bench/main.exe -- --only fig9    # one experiment
     dune exec bench/main.exe -- --list         # experiment names
     dune exec bench/main.exe -- --only micro --json BENCH_core.json
                                                # + scaling baseline JSON
     dune exec bench/main.exe -- --only micro --jobs 4
                                                # sweep points on 4 domains
     dune exec bench/main.exe -- --only memory --n 1024 --sim-s 75
                                                # live words by part at n = 1024

   Output is plain text with gnuplot-style data blocks. *)

let experiments ~quick ~seed ~trace ~json ~jobs ~n ~sim_s =
  [
    ("table-config", fun () -> Experiments.table_config ());
    ("fig1", fun () -> Experiments.fig1 ~quick ~seed);
    ("fig3", fun () -> Experiments.fig3 ());
    ("theory", fun () -> Experiments.theory ());
    ("fig9", fun () -> Experiments.fig9 ~quick ~seed);
    ("deploy", fun () -> Deployment.all ~quick ~seed ?trace ());
    ("availability", fun () -> Experiments.availability ~quick ~seed);
    ("quorum-compare", fun () -> Experiments.quorum_compare ());
    ("chaos", fun () -> Experiments.chaos ~quick ~seed);
    ("dataplane", fun () -> Dataplane.run ~quick ~seed);
    ("membership", fun () -> Membership.run ~quick ~seed);
    ("ablation", fun () -> Ablation.run ~seed);
    ("micro", fun () -> Micro.run ?json ~jobs ~quick ~seed ());
    ("memory", fun () -> Memory.run ~quick ~seed ?n ?sim_s ());
  ]

(* Run [f], teeing everything it prints to stdout into a string. *)
let with_capture f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file "apor-bench" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let ic = open_in_bin tmp in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  content

let () =
  let quick = ref false in
  let seed = ref 2009 in
  let only = ref [] in
  let list_only = ref false in
  let out_dir = ref None in
  let trace_file = ref None in
  let json_file = ref None in
  let jobs = ref 1 in
  let n = ref None in
  let sim_s = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--list" :: rest ->
        list_only := true;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--only" :: v :: rest ->
        only := !only @ String.split_on_char ',' v;
        parse rest
    | "--out" :: dir :: rest ->
        out_dir := Some dir;
        parse rest
    | "--trace" :: file :: rest ->
        trace_file := Some file;
        parse rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse rest
    | "--jobs" :: v :: rest ->
        let j = int_of_string v in
        if j < 1 then begin
          Printf.eprintf "--jobs must be >= 1\n";
          exit 2
        end;
        jobs := j;
        parse rest
    | "--n" :: v :: rest ->
        n := Some (int_of_string v);
        parse rest
    | "--sim-s" :: v :: rest ->
        sim_s := Some (float_of_string v);
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %S\n\
           (--quick | --seed N | --only a,b | --out DIR | --trace FILE | \
           --json FILE | --jobs N | --n N | --sim-s S | --list)\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let all =
    experiments ~quick:!quick ~seed:!seed ~trace:!trace_file ~json:!json_file
      ~jobs:!jobs ~n:!n ~sim_s:!sim_s
  in
  if !list_only then begin
    List.iter (fun (name, _) -> print_endline name) all;
    exit 0
  end;
  let wanted =
    match !only with
    | [] -> all
    | names ->
        List.iter
          (fun name ->
            if not (List.mem_assoc name all) then begin
              Printf.eprintf "unknown experiment %S; try --list\n" name;
              exit 2
            end)
          names;
        List.filter (fun (name, _) -> List.mem name names) all
  in
  Printf.printf
    "Scaling All-Pairs Overlay Routing (CoNEXT 2009) — experiment harness\n\
     mode: %s, seed: %d\n"
    (if !quick then "quick" else "full")
    !seed;
  (match !out_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | Some _ | None -> ());
  let wall0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let t0 = Unix.gettimeofday () in
      (match !out_dir with
      | None -> f ()
      | Some dir ->
          let content = with_capture f in
          print_string content;
          let oc = open_out (Filename.concat dir (name ^ ".txt")) in
          output_string oc content;
          close_out oc);
      Printf.printf "\n[%s finished in %.1f s]\n%!" name (Unix.gettimeofday () -. t0))
    wanted;
  (match !out_dir with
  | Some dir -> Printf.printf "\n(per-experiment outputs saved under %s/)\n" dir
  | None -> ());
  Printf.printf "\nAll experiments done in %.1f s.\n" (Unix.gettimeofday () -. wall0)
