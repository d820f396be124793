(* Child processes: spawn, wait with a deadline, read the OCaml
   runtime's exit statistics.  [OCAMLRUNPARAM=v=0x400] makes every
   OCaml program print its Gc totals on stderr at exit, which gives
   exact allocation counts with no flag of the program's own. *)

(* The child's environment: the caller's, minus anything that would
   switch the program's own knobs (SHAPMC_* envs), plus the exit
   statistics. *)
let env =
  lazy
    (Array.append
       (Array.of_list
          (List.filter
             (fun kv ->
               not (Util.starts_with ~prefix:"SHAPMC_" kv
                    || Util.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
             (Array.to_list (Unix.environment ()))))
       [| "OCAMLRUNPARAM=v=0x400" |])

let spawn ~prog ~args ~stdout ~stderr =
  let out = Unix.openfile stdout [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let err = Unix.openfile stderr [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out; err; devnull ])
      (fun () ->
        Unix.create_process_env prog (Array.of_list (prog :: args)) (Lazy.force env)
          devnull out err)
  in
  pid

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

(* Wait for [pid], killing it after [timeout] seconds (a SIGALRM
   watchdog, so the wait itself blocks and adds no polling delay to the
   measured wall time).  Returns [Some status], or [None] when it had to
   be killed. *)
let wait ?(timeout = 120.0) pid =
  let killed = ref false in
  let old =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           killed := true;
           try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()))
  in
  let arm v = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = v }) in
  arm timeout;
  let st = waitpid_noeintr pid in
  arm 0.0;
  Sys.set_signal Sys.sigalrm old;
  if !killed then None else Some st

type run = {
  ok : bool;  (** exited 0 in time *)
  wall : float;  (** seconds, spawn to exit *)
  out : string;
  err : string;
}

(* Run to completion with stdout/stderr captured under [dir]. *)
let run ?timeout ~dir ~prog args =
  let stdout = Filename.concat dir "stdout" and stderr = Filename.concat dir "stderr" in
  let t0 = Util.now () in
  let pid = spawn ~prog ~args ~stdout ~stderr in
  let st = wait ?timeout pid in
  let wall = Util.now () -. t0 in
  { ok = st = Some (Unix.WEXITED 0); wall;
    out = Util.read_file stdout; err = Util.read_file stderr }

(* A field of the runtime's exit statistics, e.g. "allocated_words". *)
let gc_stat err name =
  let prefix = name ^ ": " in
  List.find_map
    (fun l ->
      if Util.starts_with ~prefix l then
        float_of_string_opt
          (String.trim (String.sub l (String.length prefix) (String.length l - String.length prefix)))
      else None)
    (Util.lines err)
