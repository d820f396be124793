(* Small helpers shared by the benchmark: statistics, files, JSON. *)

let now = Unix.gettimeofday

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of a non-empty sample, q in [0,1]. *)
let quantile q xs =
  let a = sorted (Array.of_list xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* First and third quartiles by the exclusive method (positions
   i(n+1)/4), as Python's [statistics.quantiles xs ~n:4] gives them:
   the spread the steadiness check reports. *)
let quartiles xs =
  let a = sorted (Array.of_list xs) in
  let n = Array.length a in
  let q i =
    let m = i * (n + 1) in
    let j = max 1 (min (n - 1) (m / 4)) in
    let delta = float_of_int (m - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  if n < 2 then (nan, nan) else (q 1, q 3)
let sum xs = List.fold_left ( +. ) 0.0 xs

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () -> output_string oc s

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let lines s = String.split_on_char '\n' s

(* A metric as printed in the result line: name, value, unit. *)
type metric = string * float * string

let result_json ~correct ~attempted ~failed (metrics : metric list) =
  let module J = Shapmc_obs.Tiny_json in
  J.to_string
    (J.Obj
       [ ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, v, unit) ->
                  (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
                metrics) ) ])

(* Operation tally: every check that fails is reported on stderr, so a
   failing run says what went wrong, and counted. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ~what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 20 then Printf.eprintf "perfbench: failed: %s\n%!" what
  end
