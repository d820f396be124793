(* perfbench — end-to-end benchmark of shapmc.

     perfbench --workload W --seed N --seconds S --trace 0|1
     perfbench --steady K --workload W --seconds S [--trace 0|1]

   The first form runs one workload and prints, as its last line, one
   JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics of a traced in-process
   replay with --trace 1.  The second form runs the first K times with
   seeds 1..K and prints the median and quartiles of every metric.
   Run it through perfbench/run.sh, which builds the program first. *)

let workloads = [ "cli-tractable"; "cli-hard"; "serve-mixed" ]
let shapmc = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "shapmc.exe"))

let usage () =
  prerr_endline
    "usage: perfbench --workload cli-tractable|cli-hard|serve-mixed --seed N --seconds S \
     --trace 0|1\n       perfbench --steady K --workload W --seconds S [--trace 0|1]";
  exit 2

(* Inputs of a CLI workload; [-m circuit] answers are taken once here
   and compared with every [-m reduction] run. *)
let cli_inputs ~workload ~seed ~dir =
  match workload with
  | "cli-tractable" -> Cli_work.tractable ~seed ~dir
  | _ ->
    let circuit text =
      Refs.parse_shap (Proc.run ~dir ~prog:shapmc [ "shap"; "-m"; "circuit"; "--jobs"; "1"; text ]).out
    in
    Cli_work.hard ~seed ~dir ~circuit

let run_once ~workload ~seed ~seconds ~trace =
  (* the path's length is the same in every run: the program sees it in
     its arguments, and its allocation is to repeat to the word *)
  let dir =
    Filename.concat ".bench_build"
      (Filename.concat "perfbench" (Printf.sprintf "%s-%07d" workload (Unix.getpid ())))
  in
  Util.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
  let tally, metrics =
    match (workload, trace) with
    | "serve-mixed", 0 ->
      let r = Serve_work.run ~shapmc ~dir ~seed ~seconds () in
      (r.tally, Serve_work.metrics r)
    | "serve-mixed", _ -> Replay.serve ~shapmc ~dir ~seed ~seconds
    | _, 0 ->
      let r = Cli_work.run ~shapmc ~dir ~seconds (cli_inputs ~workload ~seed ~dir) in
      (r.tally, Cli_work.metrics r)
    | _, _ -> Replay.cli ~shapmc ~dir ~seconds (cli_inputs ~workload ~seed ~dir)
  in
  print_endline
    (Util.result_json ~correct:(tally.Util.failed = 0) ~attempted:tally.attempted
       ~failed:tally.failed metrics)

(* Steadiness: K runs with seeds 1..K, each in its own process. *)
let steady ~k ~workload ~seconds ~trace =
  let module J = Shapmc_obs.Tiny_json in
  let runs =
    List.init k (fun i ->
        let dir = Filename.concat ".bench_build" "perfbench" in
        Util.mkdir_p dir;
        let r =
          Proc.run ~timeout:600.0 ~dir ~prog:Sys.executable_name
            [ "--workload"; workload; "--seed"; string_of_int (i + 1);
              "--seconds"; Printf.sprintf "%g" seconds; "--trace"; string_of_int trace ]
        in
        let last = List.filter (( <> ) "") (Util.lines r.out) |> List.rev |> List.hd in
        Printf.printf "seed %d: %s\n%!" (i + 1) last;
        J.parse last)
  in
  let metric_names =
    match J.member "metrics" (List.hd runs) with
    | Some (J.Obj kvs) -> List.map fst kvs
    | _ -> []
  in
  Printf.printf "%-34s %14s %14s %14s %8s\n" "metric" "q1" "median" "q3" "iqr/med";
  List.iter
    (fun name ->
      let vs =
        List.filter_map
          (fun r ->
            Option.bind (J.member "metrics" r) (J.member name)
            |> Fun.flip Option.bind (J.member "value")
            |> Fun.flip Option.bind J.to_float)
          runs
      in
      let (q1, q3), m = (Util.quartiles vs, Util.median vs) in
      Printf.printf "%-34s %14.6g %14.6g %14.6g %7.1f%%\n" name q1 m q3
        (if m = 0.0 then 0.0 else 100.0 *. (q3 -. q1) /. Float.abs m))
    metric_names;
  List.iter
    (fun r ->
      Printf.printf "attempted %s failed %s\n"
        (Option.fold ~none:"?" ~some:J.to_string (J.member "attempted" r))
        (Option.fold ~none:"?" ~some:J.to_string (J.member "failed" r)))
    runs

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let seed = ref None and seconds = ref None and workload = ref "" and trace = ref 0 in
  let k = ref 0 in
  (try
     Arg.parse_argv Sys.argv
       [ ("--workload", Arg.Set_string workload, "W");
         ("--seed", Arg.Int (fun n -> seed := Some n), "N");
         ("--seconds", Arg.Float (fun s -> seconds := Some s), "S");
         ("--trace", Arg.Set_int trace, "0|1");
         ("--steady", Arg.Set_int k, "K") ]
       (fun _ -> usage ()) "perfbench"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  if not (List.mem !workload workloads) || not (!trace = 0 || !trace = 1) then usage ();
  if not (Sys.file_exists shapmc) then begin
    prerr_endline ("perfbench: " ^ shapmc ^ " is not built; run perfbench/run.sh");
    exit 2
  end;
  let seconds = match !seconds with Some s when s > 0.0 -> s | _ -> usage () in
  at_exit Serve_work.kill_live;
  if !k > 0 then steady ~k:!k ~workload:!workload ~seconds ~trace:!trace
  else
    match !seed with
    | None -> usage ()
    | Some seed -> run_once ~workload:!workload ~seed ~seconds ~trace:!trace
