(* The traced run: per-layer metrics.  It replays a workload's inputs
   in-process, timing calls into each layer's public functions from
   here (the program is not modified), and reads the counters the
   program already exposes: the Obs oracle ledger behind [--stats], and
   the daemon's /metrics and access log.

   Every workload prints every per-layer metric.  A layer the workload's
   path never reaches reads 0 (e.g. [counting.dpll_ms] on cli-tractable,
   whose safe-plan solves never count models by search).  Times are
   totals over one pass of the workload's inputs unless the name says
   otherwise. *)

open Shapmc_obs
open Shapmc_arith
open Shapmc_boolean
open Shapmc_counting
open Shapmc_circuits
open Shapmc_core
open Shapmc_db
module J = Tiny_json

let metric_units =
  [ ("db.parse_ms", "ms"); ("db.safe_plan_ms", "ms"); ("db.lineage_ms", "ms");
    ("circuits.gates", "count"); ("circuits.count_by_size_ms", "ms");
    ("circuits.compile_ms", "ms"); ("circuits.compile_expansions", "count");
    ("core.shap_direct_ms", "ms"); ("core.shap_direct_alloc_mb", "MB");
    ("core.sweep_passes", "count"); ("core.oracle_calls", "count");
    ("counting.dpll_ms", "ms"); ("counting.dpll_branches", "count");
    ("counting.dpll_cache_hits", "count"); ("boolean.subst_ms", "ms");
    ("boolean.subst_post_size", "count"); ("arith.vandermonde_ms", "ms");
    ("bin.other_ms", "ms");
    ("serve.handler_ms.shapley", "ms"); ("serve.handler_ms.all", "ms");
    ("serve.handler_ms.facts", "ms"); ("serve.handler_ms.approx", "ms");
    ("serve.handler_ms.metrics", "ms");
    ("serve.handler_alloc_kb.shapley", "KB"); ("serve.handler_alloc_kb.all", "KB");
    ("serve.handler_alloc_kb.facts", "KB"); ("serve.handler_alloc_kb.approx", "KB");
    ("serve.handler_alloc_kb.metrics", "KB");
    ("serve.parse_us", "us"); ("serve.render_us", "us");
    ("serve.server_p50_ms", "ms"); ("serve.wire_ms", "ms");
    ("db.result_key_ms", "ms"); ("db.result_key_alloc_kb", "KB");
    ("cache.hit_ratio", "ratio"); ("exec.job_wait_p50_ms", "ms");
    ("exec.worker_busy_ratio", "ratio"); ("obs.scope_overhead_ratio", "ratio");
    ("obs.metrics_render_ms", "ms"); ("obs.trace_ratio", "ratio");
    ("obs.profile_ratio", "ratio"); ("obs.convergence_checkpoints", "count");
    ("core.sampling_ms", "ms"); ("core.approx_samples", "count");
    ("loadgen.lateness_p99_ms", "ms"); ("loadgen.open_read_p50_ms", "ms");
    ("loadgen.open_read_p99_ms", "ms"); ("loadgen.closed_read_p99_ms", "ms");
    ("trace.overhead_ratio", "ratio") ]

type acc = (string, float) Hashtbl.t

let add (acc : acc) k v =
  if not (List.mem_assoc k metric_units) then invalid_arg ("unknown layer metric " ^ k);
  Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k))

let set (acc : acc) k v =
  Hashtbl.remove acc k;
  add acc k v

let output (acc : acc) : Util.metric list =
  List.map
    (fun (k, unit) -> (k, Option.value ~default:0.0 (Hashtbl.find_opt acc k), unit))
    metric_units

(* [timed f] — f's result and its wall time in ms. *)
let timed f =
  let t0 = Util.now () in
  let r = f () in
  (r, (Util.now () -. t0) *. 1000.0)

(* [measured f] — also the bytes f allocated on this domain. *)
let measured f =
  let a0 = Obs.allocated_bytes_now () in
  let r, ms = timed f in
  (r, ms, Obs.allocated_bytes_now () -. a0)

(* Oracle calls the program ledgers while [f] runs: what [--stats]
   prints. *)
let oracle_calls f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable (); Obs.reset ()) @@ fun () ->
  ignore (f ());
  float_of_int (Obs.call_count ())

(* ---- the solver path of one database (what [shapmc lineage] and a
   cold daemon solve run) ------------------------------------------- *)

(* Returns the ms spent in path layers. *)
let replay_db acc file =
  let (db, q), parse_ms = timed (fun () -> Db_parser.parse_file file) in
  let _, lineage_ms =
    timed (fun () -> ignore (Lineage.lineage_formula db q); ignore (Lineage.boolean_answer db q))
  in
  let circuit, solve_ms =
    match Dichotomy.classify q with
    | Dichotomy.Hierarchical ->
      let c, ms = timed (fun () -> Safe_plan.lineage_circuit db q) in
      add acc "db.safe_plan_ms" ms;
      (c, ms)
    | _ ->
      let f = Lineage.lineage_formula db q in
      let (c, stats), ms = timed (fun () -> Compile.compile_with_stats f) in
      add acc "circuits.compile_ms" ms;
      add acc "circuits.compile_expansions" (float_of_int stats.Compile.expansions);
      (c, ms)
  in
  let vars = Vset.elements (Database.lineage_vars db) in
  let _, shap_ms, shap_bytes = measured (fun () -> Circuit_shapley.shap_direct ~vars circuit) in
  let _, count_ms = timed (fun () -> Count.count_by_size ~vars circuit) in
  add acc "db.parse_ms" parse_ms;
  add acc "db.lineage_ms" lineage_ms;
  add acc "circuits.gates" (float_of_int (Circuit.size circuit));
  add acc "circuits.count_by_size_ms" count_ms;
  add acc "core.shap_direct_ms" shap_ms;
  add acc "core.shap_direct_alloc_mb" (shap_bytes /. 1048576.0);
  add acc "core.oracle_calls" (oracle_calls (fun () -> Explain.explain db q));
  parse_ms +. lineage_ms +. solve_ms +. shap_ms

(* The same work as one plain [shapmc lineage] run, untimed inside. *)
let bare_db file =
  let db, q = Db_parser.parse_file file in
  ignore (Lineage.lineage_formula db q);
  ignore (Explain.explain db q)

(* ---- the Lemma 3.2 + 3.3 reduction of one formula ------------------ *)

let replay_formula acc text =
  let f, _ = Parser.formula_of_string text in
  let universe = Formula.vars f in
  let n = Vset.cardinal universe in
  let block_vars blocks = Vset.of_list (List.concat_map snd blocks) in
  (* the formulas the #_k oracle is consulted on: the isomorphic copy
     at arities 1..n+1, and each zapped copy at arities 1..n *)
  let substituted, subst_ms =
    timed (fun () ->
        let tilde, blocks = Subst.isomorphic_copy ~universe f in
        let full =
          List.init (n + 1) (fun l ->
              let g, bs = Subst.uniform_or ~universe:(block_vars blocks) ~l:(l + 1) tilde in
              (g, block_vars bs))
        in
        let drops =
          List.init n (fun pos ->
              let i = List.nth (Vset.elements universe) pos in
              let z, blocks = Subst.zap ~universe ~zero:(Vset.singleton i) f in
              List.init n (fun l ->
                  let g, bs = Subst.uniform_or ~universe:(block_vars blocks) ~l:(l + 1) z in
                  (g, block_vars bs)))
        in
        full :: drops)
  in
  let counts, dpll_ms =
    timed (fun () ->
        List.map
          (List.map (fun (g, vars) ->
               let c, st = Dpll.count_with_stats g in
               add acc "counting.dpll_branches" (float_of_int st.Dpll.branches);
               add acc "counting.dpll_cache_hits" (float_of_int st.Dpll.cache_hits);
               (* over the block universe, as the pipeline counts *)
               let free = Vset.cardinal vars - Vset.cardinal (Formula.vars g) in
               Bigint.mul c (Bigint.pow Bigint.two free)))
          substituted)
  in
  let _, vandermonde_ms =
    timed (fun () ->
        List.iter
          (fun cs ->
            let values = Array.of_list (List.map Rat.of_bigint cs) in
            let points =
              Array.init (Array.length values) (fun l -> Rat.of_bigint (Bigint.two_pow_minus_one (l + 1)))
            in
            ignore (Linalg.vandermonde_solve ~points ~values))
          counts)
  in
  add acc "boolean.subst_ms" subst_ms;
  add acc "boolean.subst_post_size"
    (float_of_int (List.fold_left (List.fold_left (fun a (g, _) -> a + Formula.size g)) 0 substituted));
  add acc "counting.dpll_ms" dpll_ms;
  add acc "arith.vandermonde_ms" vandermonde_ms;
  add acc "core.oracle_calls"
    (oracle_calls (fun () ->
         Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
           ~vars:(Vset.elements universe) f));
  subst_ms +. dpll_ms +. vandermonde_ms

let bare_formula text =
  let f, _ = Parser.formula_of_string text in
  ignore
    (Pipeline.shap_via_count_oracle ~oracle:Pipeline.dpll_count_oracle
       ~vars:(Vset.elements (Formula.vars f)) f)

(* ---- the sampling path ------------------------------------------------ *)

(* median of three runs: one run lasts about as long as a scheduler
   time slice *)
let replay_approx acc ~seed ~eps ~delta ~max_samples f vars =
  let runs =
    List.init 3 (fun _ ->
        timed (fun () -> Sampling.shap_estimate ~seed ~eps ~delta ?max_samples ~vars f))
  in
  let report = fst (List.hd runs) and ms = Util.median (List.map snd runs) in
  add acc "core.sampling_ms" ms;
  add acc "core.approx_samples" (float_of_int report.Sampling.samples_used);
  add acc "obs.convergence_checkpoints"
    (float_of_int (List.length (Convergence.checkpoints report.Sampling.monitor)));
  ms

(* ---- CLI workloads -------------------------------------------------- *)

let cli ~shapmc ~dir ~seconds (inputs : Cli_work.input list) =
  let tally = Util.tally () in
  let acc : acc = Hashtbl.create 64 in
  (* the CLI itself, plain and with the program's own --trace and
     --profile: the cost of watching *)
  let firsts = Hashtbl.create 16 in
  let walls = Hashtbl.create 16 in
  let variants =
    [ ("plain", []);
      ("trace", [ "--trace"; Filename.concat dir "trace.jsonl" ]);
      ("profile", [ "--profile"; Filename.concat dir "profile.txt" ]) ]
  in
  let t0 = Util.now () in
  let rec rounds () =
    List.iter
      (fun (input : Cli_work.input) ->
        List.iter
          (fun (variant, flags) ->
            let args = List.hd input.args :: flags @ List.tl input.args in
            let r = Proc.run ~dir ~prog:shapmc args in
            let first = Hashtbl.find_opt firsts input.label in
            Util.record tally ~what:(input.label ^ " " ^ variant) (r.ok && Cli_work.correct input ~first r.out);
            if first = None then Hashtbl.replace firsts input.label r.out;
            let k = (input.label, variant) in
            Hashtbl.replace walls k (r.wall *. 1000.0 :: Option.value ~default:[] (Hashtbl.find_opt walls k)))
          variants)
      inputs;
    if Util.now () -. t0 < 0.5 *. seconds then rounds ()
  in
  rounds ();
  let wall variant =
    Util.sum (List.map (fun (i : Cli_work.input) -> Util.median (Hashtbl.find walls (i.label, variant))) inputs)
  in
  let plain = wall "plain" in
  set acc "obs.trace_ratio" (wall "trace" /. plain);
  set acc "obs.profile_ratio" (wall "profile" /. plain);
  (* the layers, in-process: one timed pass split by layer, one bare
     pass doing the same solves untimed inside *)
  let text (input : Cli_work.input) = List.nth input.args (List.length input.args - 1) in
  let bare (input : Cli_work.input) =
    match input.check with
    | Cli_work.Db _ -> bare_db (text input)
    | Cli_work.Formula _ -> bare_formula (text input)
    | Cli_work.Approx _ ->
      let f, _ = Parser.formula_of_string (text input) in
      ignore
        (Sampling.shap_estimate ~seed:Cli_work.approx_seed ~eps:Cli_work.approx_eps
           ~delta:Cli_work.approx_delta ~vars:(Vset.elements (Formula.vars f)) f)
  in
  let path_ms = ref 0.0 and bare_ms = ref 0.0 in
  List.iter
    (fun (input : Cli_work.input) ->
      (path_ms :=
         !path_ms
         +.
         match input.check with
         | Cli_work.Db _ -> replay_db acc (text input)
         | Cli_work.Formula _ -> replay_formula acc (text input)
         | Cli_work.Approx _ ->
           let f, _ = Parser.formula_of_string (text input) in
           replay_approx acc ~seed:Cli_work.approx_seed ~eps:Cli_work.approx_eps
             ~delta:Cli_work.approx_delta ~max_samples:None f (Vset.elements (Formula.vars f)));
      bare_ms := !bare_ms +. snd (timed (fun () -> bare input)))
    inputs;
  (* start-up, argument handling and printing: one invocation's wall on
     the smallest input over the same work done in-process.  On the
     whole workload the difference would be lost in the solves' noise. *)
  let small = List.hd inputs in
  set acc "bin.other_ms"
    (Util.median (Hashtbl.find walls (small.label, "plain"))
     -. Util.median (List.init 11 (fun _ -> snd (timed (fun () -> bare small)))));
  set acc "trace.overhead_ratio" (!path_ms /. !bare_ms);
  let shap = Option.value ~default:0.0 (Hashtbl.find_opt acc "core.shap_direct_ms") in
  let count = Option.value ~default:0.0 (Hashtbl.find_opt acc "circuits.count_by_size_ms") in
  if count > 0.0 then set acc "core.sweep_passes" (shap /. count);
  (tally, output acc)

(* ---- the daemon workload -------------------------------------------- *)

let read_kinds = Serve_work.read_kinds

(* "name{labels} value" samples of an OpenMetrics text, summed by name. *)
let om_total text name =
  List.fold_left
    (fun a l ->
      if Util.starts_with ~prefix:(name ^ "{") l || Util.starts_with ~prefix:(name ^ " ") l then
        match String.rindex_opt l ' ' with
        | Some i -> a +. Option.value ~default:0.0 (float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)))
        | None -> a
      else a)
    0.0 (Util.lines text)

let serve ~shapmc ~dir ~seed ~seconds =
  let access = Filename.concat dir "access.jsonl" in
  (* 1. the daemon under the same load, with its access log on *)
  let r =
    Serve_work.run ~extra_args:[ "--access-log"; access ] ~shapmc ~dir ~seed ~seconds:(0.5 *. seconds) ()
  in
  let tally = r.tally in
  let acc : acc = Hashtbl.create 64 in
  let log =
    List.filter_map
      (fun l -> if l = "" then None else J.parse_opt l)
      (Util.lines (try Util.read_file access with Sys_error _ -> ""))
  in
  let field k j = Option.bind (J.member k j) J.to_float in
  let route j = Option.value ~default:"" (Option.bind (J.member "route" j) J.to_str) in
  let read_routes = [ "/v1/shapley"; "/v1/shapley/all"; "/v1/facts" ] in
  let server_reads =
    List.filter_map (fun j -> if List.mem (route j) read_routes then field "wall_seconds" j else None) log
  in
  let server_p50 = 1000.0 *. Util.median server_reads in
  let client_p50 =
    Util.median
      (List.filter_map
         (fun (c : Loadgen.completion) ->
           if c.ok && List.mem c.req.kind read_kinds then Some ((c.done_ -. c.sent) *. 1000.0) else None)
         (r.closed @ r.opened))
  in
  set acc "serve.server_p50_ms" server_p50;
  set acc "serve.wire_ms" (client_p50 -. server_p50);
  let hits = om_total r.metrics_text "shapmc_cache_hits_total"
  and misses = om_total r.metrics_text "shapmc_cache_misses_total" in
  set acc "cache.hit_ratio" (hits /. Float.max 1.0 (hits +. misses));
  let queues = List.filter_map (fun j -> Option.bind (field "queue_seconds" j) (fun q -> if q > 0.0 then Some (q *. 1000.0) else None)) log in
  set acc "exec.job_wait_p50_ms" (if queues = [] then 0.0 else Util.median queues);
  set acc "obs.metrics_render_ms"
    (1000.0
     *. Util.median
          (List.filter_map (fun j -> if route j = "/metrics" then field "wall_seconds" j else None) log));
  set acc "exec.worker_busy_ratio"
    (Util.sum (List.filter_map (field "wall_seconds") log)
     /. (float_of_int Serve_work.jobs *. (r.closed_seconds +. r.open_seconds)));
  set acc "loadgen.lateness_p99_ms"
    (Util.quantile 0.99 (List.map (fun (c : Loadgen.completion) -> (c.sent -. c.due) *. 1000.0) r.opened));
  (* the open loop's reads, timed from when each was due *)
  let open_reads = Serve_work.latencies ~kinds:read_kinds r.opened in
  set acc "loadgen.open_read_p50_ms" (Util.median open_reads);
  set acc "loadgen.open_read_p99_ms" (Util.quantile 0.99 open_reads);
  set acc "loadgen.closed_read_p99_ms"
    (Util.quantile 0.99 (Serve_work.latencies ~kinds:read_kinds r.closed));
  (* 2. in-process: cold solves, then the handlers on the same mix *)
  let queries, files = Serve_work.prepare ~dir ~seed in
  List.iter (fun f -> ignore (replay_db acc f)) files;
  let api =
    Shapmc_serve.Api.load_files
      (List.map2 (fun (q : Serve_work.query) f -> (q.db.name, f)) queries files)
  in
  List.iter
    (fun (q : Serve_work.query) ->
      let e = Option.get (Shapmc_serve.Api.find api q.db.name) in
      let values, _ = Shapmc_serve.Api.shapley_all api e in
      q.facts <-
        Array.map
          (fun (id, rel, tuple) ->
            ( id,
              Gen.key
                { Gen.rel; args = Array.to_list (Array.map (function Value.VInt i -> i | _ -> 0) tuple) },
              Shapmc_serve.Api.cursor_of_fact id ))
          e.Shapmc_serve.Api.facts;
      let by_key =
        List.map
          (fun (id, v) ->
            let _, key, _ = List.find (fun (id', _, _) -> id' = id) (Array.to_list q.facts) in
            let value = { Refs.num = Bigint.to_string (Rat.num v); den = Bigint.to_string (Rat.den v) } in
            Hashtbl.replace q.values id value;
            (key, value))
          values
      in
      Util.record tally ~what:("in-process solve " ^ q.db.name) (Refs.check q.expect by_key))
    queries;
  let routes = Shapmc_serve.Api.routes api in
  let mix = Serve_work.mix ~seed queries in
  let limits = Shapmc_serve.Limits.default in
  let requests =
    Array.map
      (fun (r : Loadgen.request) ->
        let bytes = Loadgen.render ~host:"127.0.0.1" ~port:80 r in
        let p = Shapmc_serve.Http.create ~limits in
        Shapmc_serve.Http.feed p bytes;
        match Shapmc_serve.Http.poll p with
        | Shapmc_serve.Http.Request req -> (r, bytes, req)
        | _ -> failwith "perfbench: request did not parse")
      mix
  in
  let dispatch req = snd (Shapmc_serve.Router.dispatch routes req) in
  (* timed pass: per-kind handler time and allocation, parse, render *)
  let per = Hashtbl.create 8 and parse_us = ref [] and render_us = ref [] in
  let passes = 3 in
  let timed_ms = ref 0.0 in
  for _ = 1 to passes do
    Array.iter
      (fun ((r : Loadgen.request), bytes, req) ->
        let _, p_ms =
          timed (fun () ->
              let p = Shapmc_serve.Http.create ~limits in
              Shapmc_serve.Http.feed p bytes;
              Shapmc_serve.Http.poll p)
        in
        let resp, ms, bytes_alloc = measured (fun () -> dispatch req) in
        let _, r_ms =
          timed (fun () ->
              Shapmc_serve.Http.render_response ~headers:resp.Shapmc_serve.Router.headers ~keep_alive:true
                ~status:resp.status ~body:resp.body ())
        in
        Util.record tally ~what:("in-process " ^ r.kind) (resp.status = 200 && r.check resp.body);
        timed_ms := !timed_ms +. ms;
        parse_us := (p_ms *. 1000.0) :: !parse_us;
        render_us := (r_ms *. 1000.0) :: !render_us;
        let ts, bs = Option.value ~default:([], []) (Hashtbl.find_opt per r.kind) in
        Hashtbl.replace per r.kind (ms :: ts, (bytes_alloc /. 1024.0) :: bs))
      requests
  done;
  Hashtbl.iter
    (fun kind (ts, bs) ->
      set acc ("serve.handler_ms." ^ kind) (Util.median ts);
      set acc ("serve.handler_alloc_kb." ^ kind) (Util.median bs))
    per;
  set acc "serve.parse_us" (Util.median !parse_us);
  set acc "serve.render_us" (Util.median !render_us);
  (* the same dispatches untimed, bare and under each observation mode;
     the modes take turns over five rounds and each reports its median,
     so drift over the replay moves every mode alike *)
  let pass ?(wrap = fun f -> f ()) () =
    snd (timed (fun () -> Array.iter (fun (_, _, req) -> ignore (wrap (fun () -> dispatch req))) requests))
  in
  let observed ~profiling () =
    Obs.reset ();
    Obs.enable ();
    Obs.set_profiling profiling;
    Fun.protect ~finally:(fun () -> Obs.set_profiling false; Obs.disable (); Obs.reset ()) (fun () -> pass ())
  in
  let modes =
    [ ("bare", fun () -> pass ());
      ("scope", fun () -> pass ~wrap:(fun f -> Scope.with_scope (Scope.create ~id:"replay" ()) f) ());
      ("trace", observed ~profiling:false);
      ("profile", observed ~profiling:true) ]
  in
  let times = Hashtbl.create 4 in
  for _ = 1 to 5 do
    List.iter
      (fun (m, f) -> Hashtbl.replace times m (f () :: Option.value ~default:[] (Hashtbl.find_opt times m)))
      modes
  done;
  let med m = Util.median (Hashtbl.find times m) in
  let bare = med "bare" in
  set acc "trace.overhead_ratio" (!timed_ms /. float_of_int passes /. bare);
  set acc "obs.scope_overhead_ratio" (med "scope" /. bare);
  set acc "obs.trace_ratio" (med "trace" /. bare);
  set acc "obs.profile_ratio" (med "profile" /. bare);
  let key_ms, key_kb =
    List.split
      (List.map
         (fun (e : Shapmc_serve.Api.entry) ->
           let _, ms, b = measured (fun () -> Db_fingerprint.result_key e.db e.query) in
           (ms, b /. 1024.0))
         (Shapmc_serve.Api.entries api))
  in
  set acc "db.result_key_ms" (Util.sum key_ms /. float_of_int (List.length key_ms));
  set acc "db.result_key_alloc_kb" (Util.sum key_kb /. float_of_int (List.length key_kb));
  (* the approx route's estimator, as the handler calls it *)
  let e = Option.get (Shapmc_serve.Api.find api Serve_work.approx_query) in
  let f = Lineage.lineage_formula e.db e.query in
  let vars = Vset.elements (Database.lineage_vars e.db) in
  ignore
    (replay_approx acc ~seed:Serve_work.approx_seed ~eps:Serve_work.approx_eps
       ~delta:Serve_work.approx_delta
       ~max_samples:
         (Some
            (min Shapmc_serve.Api.approx_max_samples
               (Sampling.samples_for ~eps:Serve_work.approx_eps ~delta:Serve_work.approx_delta)))
       f vars);
  let shap = Hashtbl.find acc "core.shap_direct_ms" and count = Hashtbl.find acc "circuits.count_by_size_ms" in
  set acc "core.sweep_passes" (shap /. count);
  (tally, output acc)
