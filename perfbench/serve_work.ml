(* The daemon workload: [shapmc serve -j 2] over four generated
   databases, warmed during set-up, then a closed-loop phase and an
   open-loop phase sending the same seeded request mix. *)

module J = Shapmc_obs.Tiny_json

let jobs = 2
let setups = 5
let mix_len = 200
let page_limit = 10
let approx_query = "pair"
let approx_eps = 0.1
let approx_delta = 0.05
let approx_seed = 7

(* Open-loop rate, well below the closed-loop capacity measured on a
   2-CPU machine (see README). *)
let open_rate = 150.0

type query = {
  db : Gen.db;
  expect : Refs.expect * bool array;
  mutable facts : (int * string * string) array;  (** id, key, cursor *)
  values : (int, Refs.value) Hashtbl.t;  (** verified exact values *)
}

let databases ~seed =
  [ Gen.pair ~seed ~name:"pair" ~k:50;
    Gen.star ~seed ~name:"star" ~n:100;
    Gen.exo ~seed ~name:"exo" ~r:100 ~s:300;
    Gen.bip ~seed ~name:"bip" ~players:20 ]

(* ---- JSON helpers ----------------------------------------------- *)

let member k j = Option.bind j (J.member k)
let int_of k j = Option.bind (member k j) J.to_int
let str_of k j = Option.bind (member k j) J.to_str
let list_of k j = Option.value ~default:[] (Option.bind (member k j) J.to_list)
let parse body = J.parse_opt body

let key_of rel tuple =
  Printf.sprintf "%s(%s)" rel
    (String.concat ", "
       (List.map (fun v -> match J.to_int v with Some i -> string_of_int i | None -> "?") tuple))

let fact_key item =
  match (str_of "relation" item, Option.bind (member "tuple" item) J.to_list) with
  | Some rel, Some t -> Some (key_of rel t)
  | _ -> None

let rat_of j =
  match (str_of "num" j, str_of "den" j) with
  | Some num, Some den -> Some { Refs.num; den }
  | _ -> None

(* ---- requests ---------------------------------------------------- *)

let post ?(values = 0) kind target fields check =
  { Loadgen.kind; meth = "POST"; target; body = J.to_string (J.Obj fields); values; check }

let get ?(values = 0) kind target check =
  { Loadgen.kind; meth = "GET"; target; body = ""; values; check }

let page_len q ~start = min page_limit (Array.length q.facts - start - 1)

(* The page after [start] (an index into the fact array, -1 for the
   first page) must list exactly the next [page_limit] facts, in order;
   [item_ok k item] checks the item against fact [k]. *)
let page_ok q ~start ~field ~item_ok body =
  let j = parse body in
  let items = list_of field j in
  let n = Array.length q.facts in
  let expected = page_len q ~start in
  List.length items = expected
  && List.for_all2 (fun item i -> item_ok (start + 1 + i) (Some item)) items
       (List.init expected Fun.id)
  && (str_of "next_cursor" j <> None) = (start + 1 + expected < n)

let id_of q k = let id, _, _ = q.facts.(k) in id

let value_ok q id item =
  int_of "fact" item = Some id
  && (match (rat_of (member "shapley" item), Hashtbl.find_opt q.values id) with
      | Some v, Some w -> v = w
      | _ -> false)

let cursor_field q start =
  if start < 0 then []
  else
    let _, _, c = q.facts.(start) in
    [ ("cursor", J.Str c) ]

let shapley_req q id =
  post ~values:1 "shapley" "/v1/shapley"
    [ ("query", J.Str q.db.name); ("fact", J.Int id) ]
    (fun body -> value_ok q id (parse body))

let all_req q ~start =
  post ~values:(page_len q ~start) "all" "/v1/shapley/all"
    ([ ("query", J.Str q.db.name); ("limit", J.Int page_limit) ] @ cursor_field q start)
    (page_ok q ~start ~field:"values" ~item_ok:(fun k -> value_ok q (id_of q k)))

let facts_req q ~start =
  let cursor = match cursor_field q start with [ (_, J.Str c) ] -> "&cursor=" ^ c | _ -> "" in
  get "facts"
    (Printf.sprintf "/v1/facts?query=%s&limit=%d%s" q.db.name page_limit cursor)
    (page_ok q ~start ~field:"facts" ~item_ok:(fun k item ->
         let id, key, _ = q.facts.(k) in
         int_of "id" item = Some id
         && fact_key item = Some key))

(* Approx answers: the same seed must give the same bytes, and the
   half-widths must cover the exact values for at least a (1−δ) share
   of the facts. *)
let approx_req q ~first =
  (* a decimal string as a float: leading digits times a power of ten *)
  let float_of_text t =
    let l = String.length t in
    float_of_string (String.sub t 0 (min l 17)) *. (10.0 ** float_of_int (max 0 (l - 17)))
  in
  let exact id =
    let v = Hashtbl.find q.values id in
    float_of_text v.Refs.num /. float_of_text v.Refs.den
  in
  post "approx" "/v1/shapley/approx"
    [ ("query", J.Str q.db.name); ("eps", J.Float approx_eps); ("delta", J.Float approx_delta);
      ("seed", J.Int approx_seed) ]
    (fun body ->
      match !first with
      | Some b -> b = body
      | None ->
        let items = list_of "values" (parse body) in
        let covered =
          List.filter
            (fun it ->
              match (int_of "fact" (Some it), Option.bind (J.member "value" it) J.to_float,
                     Option.bind (J.member "half_width" it) J.to_float) with
              | Some id, Some v, Some hw when Hashtbl.mem q.values id ->
                Float.abs (v -. exact id) <= hw +. 1e-12
              | _ -> false)
            items
        in
        let n = Array.length q.facts in
        let ok =
          List.length items = n
          && float_of_int (List.length covered) >= (1.0 -. approx_delta) *. float_of_int n
        in
        if ok then first := Some body;
        ok)

let metrics_req () =
  get "metrics" "/metrics" (fun body ->
      let n = String.length body in
      n >= 6 && String.sub body (n - 6) 6 = "# EOF\n")

(* The seeded mix: per [mix_len] requests, 150 single-fact Shapley
   reads, 20 /all pages, 20 /facts pages, 6 approx runs and 4 /metrics
   scrapes.  Each kind visits the queries in turn, every page is full
   and the order of kinds is fixed, so the work in a mix and where its
   slow approx runs fall are the same for every seed; the seed draws the
   facts and the page starts. *)
let mix ~seed queries =
  let st = Random.State.make [| seed; 77 |] in
  let qs = Array.of_list queries in
  let kinds =
    List.concat
      [ List.init 150 (fun i -> (`Shapley, i)); List.init 20 (fun i -> (`All, i));
        List.init 20 (fun i -> (`Facts, i)); List.init 6 (fun i -> (`Approx, i));
        List.init 4 (fun i -> (`Metrics, i)) ]
  in
  let first_approx = ref None in
  let approx_q = List.find (fun q -> q.db.name = approx_query) queries in
  let full_page_start n = Random.State.int st (n - page_limit + 1) - 1 in
  Array.of_list
    (List.map
       (fun (k, i) ->
         let q = qs.(i mod Array.length qs) in
         let n = Array.length q.facts in
         match k with
         | `Shapley ->
           let id, _, _ = q.facts.(Random.State.int st n) in
           shapley_req q id
         | `All -> all_req q ~start:(full_page_start n)
         | `Facts -> facts_req q ~start:(full_page_start n)
         | `Approx -> approx_req approx_q ~first:first_approx
         | `Metrics -> metrics_req ())
       (Gen.shuffle (Gen.shape_rng ~tag:"mix") kinds))

(* ---- the daemon ---------------------------------------------------- *)

type daemon = { pid : int; port : int; out : string; err : string }

(* Daemons still running, killed at exit if a run is cut short. *)
let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Proc.wait ~timeout:10.0 pid))
    !live;
  live := []

let start ?(extra_args = []) ~shapmc ~dir ~files () =
  let out = Filename.concat dir "serve.out" and err = Filename.concat dir "serve.err" in
  let pid =
    Proc.spawn ~prog:shapmc
      ~args:([ "serve"; "--port"; "0"; "-j"; string_of_int jobs ] @ extra_args @ files)
      ~stdout:out ~stderr:err
  in
  live := pid :: !live;
  let deadline = Util.now () +. 60.0 in
  let rec port () =
    let text = try Util.read_file out with Sys_error _ -> "" in
    match Refs.find_sub text "http://127.0.0.1:" with
    | Some i ->
      let rest = String.sub text (i + 17) (String.length text - i - 17) in
      let digits = String.to_seq rest |> Seq.take_while (fun c -> c >= '0' && c <= '9') |> String.of_seq in
      (* the whole line, not a partial write *)
      if String.length rest > String.length digits then int_of_string digits
      else (Unix.sleepf 0.002; port ())
    | None ->
      if Util.now () > deadline then failwith "daemon did not start";
      Unix.sleepf 0.002;
      port ()
  in
  { pid; port = port (); out; err }

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let st = Proc.wait ~timeout:30.0 d.pid in
  live := List.filter (( <> ) d.pid) !live;
  let err = Util.read_file d.err in
  ( st = Some (Unix.WEXITED 0),
    Option.value ~default:nan (Proc.gc_stat err "allocated_words"),
    Option.value ~default:nan (Proc.gc_stat err "top_heap_words") )

(* Requests sent outside the load phases, for per-request figures. *)
let synced = ref 0

let sync lg r =
  incr synced;
  let body = ref "" in
  let r = { r with Loadgen.check = (fun b -> body := b; r.Loadgen.check b) } in
  let result = ref None in
  let emit c = result := Some c in
  Loadgen.send lg lg.Loadgen.conns.(0) r ~due:(Util.now ()) ~emit;
  while !result = None do Loadgen.pump lg ~timeout:1.0 ~emit done;
  ((Option.get !result).Loadgen.ok, !body)

(* Set-up: spawn to /healthz 200, then one cold /v1/shapley/all per
   query.  The cold answers are checked against the references. *)
let setup ?extra_args ~shapmc ~dir ~files ~queries ~tally () =
  let t0 = Util.now () in
  let d = start ?extra_args ~shapmc ~dir ~files () in
  let lg = Loadgen.create ~host:"127.0.0.1" ~port:d.port in
  let rec healthy () =
    let ok =
      try fst (sync lg (get "healthz" "/healthz" (fun b -> str_of "status" (parse b) = Some "ok")))
      with Unix.Unix_error _ -> false
    in
    if not ok then begin
      if Util.now () -. t0 > 60.0 then failwith "daemon not healthy";
      Loadgen.close lg;
      Unix.sleepf 0.002;
      healthy ()
    end
  in
  healthy ();
  List.iter
    (fun q ->
      let ok, body =
        sync lg
          (post "cold" "/v1/shapley/all" [ ("query", J.Str q.db.name); ("limit", J.Int 1000) ]
             (fun _ -> true))
      in
      let entries =
        List.filter_map
          (fun it ->
            let it = Some it in
            match (str_of "relation" it, Option.bind (member "tuple" it) J.to_list, rat_of (member "shapley" it)) with
            | Some rel, Some t, Some v -> Some (key_of rel t, v)
            | _ -> None)
          (list_of "values" (parse body))
      in
      Util.record tally ~what:("cold /v1/shapley/all " ^ q.db.name) (ok && Refs.check q.expect entries))
    queries;
  let elapsed = Util.now () -. t0 in
  Loadgen.close lg;
  (d, elapsed)

(* Walk /v1/facts and /v1/shapley/all in small pages: every fact exactly
   once, in id order, each the generator's fact with its reference
   value.  Fills [q.facts] and [q.values] for the mix's checks. *)
let walk lg q ~tally =
  let rec facts cursor acc =
    let ok, body =
      sync lg
        (get "facts"
           (Printf.sprintf "/v1/facts?query=%s&limit=7%s" q.db.name
              (match cursor with Some c -> "&cursor=" ^ c | None -> ""))
           (fun _ -> true))
    in
    let j = parse body in
    let page =
      List.filter_map
        (fun it ->
          let it = Some it in
          match (int_of "id" it, str_of "relation" it, Option.bind (member "tuple" it) J.to_list, str_of "cursor" it) with
          | Some id, Some rel, Some t, Some c -> Some (id, key_of rel t, c)
          | _ -> None)
        (list_of "facts" j)
    in
    let acc = List.rev_append page acc in
    match str_of "next_cursor" j with
    | Some c when ok && page <> [] -> facts (Some c) acc
    | _ -> (ok, List.rev acc)
  in
  let ok, fs = facts None [] in
  let keys = List.sort compare (List.map (fun (_, k, _) -> k) fs) in
  let ids = List.map (fun (id, _, _) -> id) fs in
  Util.record tally ~what:("/v1/facts walk " ^ q.db.name)
    (ok && keys = List.sort compare (Array.to_list (fst q.expect).Refs.keys)
     && ids = List.sort_uniq compare ids);
  q.facts <- Array.of_list fs;
  let rec values cursor acc =
    let ok, body =
      sync lg
        (post "all" "/v1/shapley/all"
           ([ ("query", J.Str q.db.name); ("limit", J.Int 9) ]
            @ match cursor with Some c -> [ ("cursor", J.Str c) ] | None -> [])
           (fun _ -> true))
    in
    let j = parse body in
    let page =
      List.filter_map
        (fun it ->
          let it = Some it in
          match (int_of "fact" it, str_of "relation" it, Option.bind (member "tuple" it) J.to_list, rat_of (member "shapley" it)) with
          | Some id, Some rel, Some t, Some v -> Some (id, key_of rel t, v)
          | _ -> None)
        (list_of "values" j)
    in
    let acc = List.rev_append page acc in
    match str_of "next_cursor" j with
    | Some c when ok && page <> [] -> values (Some c) acc
    | _ -> (ok, List.rev acc)
  in
  let ok, vs = values None [] in
  Util.record tally ~what:("/v1/shapley/all walk " ^ q.db.name)
    (ok
     && List.map (fun (id, _, _) -> id) vs = ids
     && Refs.check q.expect (List.map (fun (_, k, v) -> (k, v)) vs));
  List.iter (fun (id, _, v) -> Hashtbl.replace q.values id v) vs

type result = {
  setup : float;
  closed : Loadgen.completion list;
  closed_seconds : float;
  opened : Loadgen.completion list;
  open_seconds : float;
  served_after_setup : int;
  values_after_setup : int;
  alloc_after_setup_words : float;
  top_heap_words : float;
  metrics_text : string;  (** a final /metrics scrape *)
  tally : Util.tally;
}

(* The four databases with their references, written under [dir]. *)
let prepare ~dir ~seed =
  let queries =
    List.map
      (fun (db : Gen.db) ->
        { db; expect = Refs.expect db; facts = [||]; values = Hashtbl.create 256 })
      (databases ~seed)
  in
  let files =
    List.map
      (fun q ->
        let f = Filename.concat dir (q.db.name ^ ".db") in
        Util.write_file f (Gen.render q.db);
        f)
      queries
  in
  (queries, files)

let run ?extra_args ~shapmc ~dir ~seed ~seconds () =
  let tally = Util.tally () in
  let queries, files = prepare ~dir ~seed in
  (* set up [setups] times; keep the last daemon *)
  let rec setups_loop i times allocs =
    let d, t = setup ?extra_args ~shapmc ~dir ~files ~queries ~tally () in
    if i < setups then begin
      let ok, alloc, _ = stop d in
      Util.record tally ~what:"daemon clean exit" ok;
      setups_loop (i + 1) (t :: times) (alloc :: allocs)
    end
    else (d, t :: times, allocs)
  in
  let d, times, allocs = setups_loop 1 [] [] in
  let lg = Loadgen.create ~host:"127.0.0.1" ~port:d.port in
  synced := 0;
  List.iter (fun q -> walk lg q ~tally) queries;
  let mix = mix ~seed queries in
  let issued = ref 0 in
  let next () =
    let r = mix.(!issued mod mix_len) in
    incr issued;
    r
  in
  let record acc (c : Loadgen.completion) =
    Util.record tally ~what:(c.req.kind ^ " " ^ c.req.target) c.ok;
    acc := c :: !acc
  in
  (* closed loop: 60% of the run, whole mixes *)
  Loadgen.close lg;
  let closed = ref [] in
  let t0 = Util.now () in
  Loadgen.closed lg ~next
    ~stop:(fun () -> Util.now () -. t0 >= 0.6 *. seconds && !issued mod mix_len = 0)
    ~emit:(record closed);
  let closed_seconds = Util.now () -. t0 in
  (* open loop: 40% of the run at [open_rate], whole mixes *)
  Loadgen.close lg;
  let count =
    let c = int_of_float (0.4 *. seconds *. open_rate) in
    max mix_len ((c + mix_len - 1) / mix_len * mix_len)
  in
  let opened = ref [] in
  let t1 = Util.now () in
  Loadgen.open_ lg ~rate:open_rate ~count ~next ~emit:(record opened);
  let open_seconds = Util.now () -. t1 in
  let _, metrics_text = sync lg (metrics_req ()) in
  let synced_after_setup = !synced in
  Loadgen.close lg;
  (* the daemon closes a keep-alive connection after 100 requests *)
  Printf.eprintf "perfbench: %d closed-loop and %d open-loop requests, %d reconnects on Connection: close\n"
    (List.length !closed) (List.length !opened) lg.Loadgen.reconnects;
  let ok, alloc, top_heap = stop d in
  Util.record tally ~what:"daemon clean exit" ok;
  let all = !closed @ !opened in
  { setup = Util.median times;
    closed = !closed;
    closed_seconds;
    opened = !opened;
    open_seconds;
    served_after_setup = List.length all + synced_after_setup;
    values_after_setup =
      List.fold_left (fun a (c : Loadgen.completion) -> a + c.req.values) 0 all;
    alloc_after_setup_words = alloc -. Util.median allocs;
    top_heap_words = top_heap;
    metrics_text;
    tally }

let latencies ?(kinds = []) cs =
  List.filter_map
    (fun (c : Loadgen.completion) ->
      if c.ok && (kinds = [] || List.mem c.req.kind kinds) then Some ((c.done_ -. c.due) *. 1000.0)
      else None)
    (List.sort (fun (x : Loadgen.completion) y -> compare x.due y.due) cs)


let read_kinds = [ "shapley"; "all"; "facts" ]

(* The closed loop's completions in windows of [mix_len], in order of
   completion, each with the time the one before it ended; the first
   window is warm-up and is left out.  Figures are medians over
   windows, so a slow stretch of the machine moves the windows it
   covers, not the figure. *)
let windows cs =
  let a = Array.of_list (List.sort (fun (x : Loadgen.completion) y -> compare x.done_ y.done_) cs) in
  List.init (Array.length a / mix_len - 1) (fun w ->
      let lo = (w + 1) * mix_len in
      (a.(lo - 1).done_, Array.to_list (Array.sub a lo mix_len)))

(* [f] summed over a window and divided by its length. *)
let window_rate f cs =
  Util.median
    (List.map
       (fun (start, w) ->
         let last = List.fold_left (fun t (c : Loadgen.completion) -> Float.max t c.done_) start w in
         Util.sum (List.map f w) /. (last -. start))
       (windows cs))

(* The [q] quantile of a window's read latencies. *)
let window_read_quantile q cs =
  Util.median (List.map (fun (_, w) -> Util.quantile q (latencies ~kinds:read_kinds w)) (windows cs))

let metrics r : Util.metric list =
  (* Read latencies come from the closed loop.  On a 2-vCPU virtual
     machine an open loop at a rate well below capacity lets the vCPUs
     halt between requests, and its latencies then measure how soon the
     host wakes them: two runs of the same code differed by 2x in p50.
     The tail is the p90: the p99 doubles whenever the shared machine
     is slow (3.2 to 10.2 ms over ten seeds of the same code).  Both
     read percentiles are medians over windows: a CPU hog switched on
     and off every 2.5 s moved the whole run's p90 by 31%, the median
     of the windows' p90s by 7% at most.  The open loop's figures and
     the closed-loop p99 are in the traced run. *)
  [ ("setup_s", r.setup, "s");
    ( "values_per_s",
      window_rate (fun c -> if c.ok then float_of_int c.req.values else 0.0) r.closed,
      "values/s" );
    ( "alloc_kb_per_value",
      r.alloc_after_setup_words *. 8.0 /. 1024.0 /. float_of_int (max 1 r.values_after_setup),
      "KB/value" );
    ("peak_heap_mb", r.top_heap_words *. 8.0 /. 1048576.0, "MB");
    ("req_per_s", window_rate (fun _ -> 1.0) r.closed, "req/s");
    ("read_p50_ms", window_read_quantile 0.5 r.closed, "ms");
    ("read_p90_ms", window_read_quantile 0.9 r.closed, "ms");
    ("approx_p50_ms", Util.median (latencies ~kinds:[ "approx" ] r.closed), "ms");
    ( "alloc_kb_per_req",
      r.alloc_after_setup_words *. 8.0 /. 1024.0 /. float_of_int r.served_after_setup,
      "KB/req" ) ]
