(* The CLI workloads: [shapmc] subprocesses, one at a time, over seeded
   inputs.  A run is whole rounds; each round runs every input its
   [repeats] times and checks every output against the references in
   [Refs]. *)

type check =
  | Db of (Refs.expect * bool array)
  | Formula of Gen.formula * (int * int) array * (string * Refs.value) list
      (** enumeration reference, and the [-m circuit] answer *)
  | Approx of Gen.formula * float array  (** exact values of variables 1..n *)

type input = {
  label : string;
  args : string list;  (** shapmc arguments *)
  check : check;
  values : int;  (** exact Shapley values the run prints *)
  repeats : int;
      (** runs per round: cheap inputs run several times, so that their
          medians rest on more samples than one per round *)
}

let approx_eps = 0.05
let approx_delta = 0.05
let approx_seed = 11

let db_input ~dir ((db : Gen.db), repeats) =
  let file = Filename.concat dir (db.name ^ ".db") in
  Util.write_file file (Gen.render db);
  let e = Refs.expect db in
  { label = db.name; args = [ "lineage"; "--jobs"; "1"; file ];
    check = Db e; values = Array.length (fst e).Refs.keys; repeats }

let approx_input ~label f exact =
  { label;
    args =
      [ "approx"; "--jobs"; "1"; "--seed"; string_of_int approx_seed;
        "--eps"; string_of_float approx_eps; "--delta"; string_of_float approx_delta;
        Gen.formula_text f ];
    check = Approx (f, exact); values = 0; repeats = 9 }

(* The tractable side: hierarchical databases through the safe plan.
   The first input is the smallest: its runs give [setup_s]. *)
let tractable ~seed ~dir =
  let dbs =
    [ (Gen.pair ~seed ~name:"pair-small" ~k:5, 9);
      (Gen.star ~seed ~name:"star-small" ~n:12, 3);
      (Gen.exo ~seed ~name:"exo-small" ~r:8 ~s:20, 3);
      (Gen.pair ~seed ~name:"pair-80" ~k:40, 3);
      (Gen.pair ~seed ~name:"pair-120" ~k:60, 3);
      (Gen.pair ~seed ~name:"pair-160" ~k:80, 1);
      (Gen.star ~seed ~name:"star-80" ~n:80, 3);
      (Gen.star ~seed ~name:"star-120" ~n:120, 1);
      (Gen.star ~seed ~name:"star-160" ~n:160, 1);
      (Gen.exo ~seed ~name:"exo-400" ~r:100 ~s:400, 1);
      (Gen.exo ~seed ~name:"exo-600" ~r:100 ~s:600, 1) ]
  in
  let approx =
    let db = Gen.pair ~seed ~name:"pair-approx" ~k:20 in
    let f = Gen.lineage_formula ~seed db (snd (Refs.clauses_of db)) in
    approx_input ~label:"approx-pair-40" f (Array.make 40 (1.0 /. 40.0))
  in
  List.map (db_input ~dir) dbs @ [ approx ]

(* The hard side: non-hierarchical lineages through compilation, and
   the Lemma 3.2/3.3 reduction on DNFs at --jobs 1. *)
let hard ~seed ~dir ~circuit =
  let dbs =
    [ (Gen.bip ~seed ~name:"bip-12" ~players:12, 9);
      (Gen.bip ~seed ~name:"bip-20" ~players:20, 3);
      (Gen.bip ~seed ~name:"bip-24" ~players:24, 3);
      (Gen.bip ~seed ~name:"bip-28" ~players:28, 3) ]
  in
  let formulas =
    [ (Gen.path ~seed ~name:"path-8" ~n:8, 1);
      (Gen.path ~seed ~name:"path-9" ~n:9, 1);
      (Gen.random_dnf ~seed ~name:"dnf-8a" ~n:8, 3);
      (Gen.random_dnf ~seed ~name:"dnf-8b" ~n:8, 3);
      (Gen.random_dnf ~seed ~name:"dnf-9a" ~n:9, 1);
      (Gen.random_dnf ~seed ~name:"dnf-9b" ~n:9, 3) ]
  in
  let shap ((f : Gen.formula), repeats) =
    let text = Gen.formula_text f in
    { label = f.fname; args = [ "shap"; "-m"; "reduction"; "--jobs"; "1"; text ];
      check = Formula (f, Refs.expect_formula f, circuit text); values = f.nvars; repeats }
  in
  let approx =
    let f = Gen.random_dnf ~seed ~name:"dnf-approx" ~n:9 in
    let exact = Array.map (fun (n, d) -> float_of_int n /. float_of_int d) (Refs.expect_formula f) in
    approx_input ~label:"approx-dnf-9" f exact
  in
  List.map (db_input ~dir) dbs @ List.map shap formulas @ [ approx ]

(* [shapmc approx] prints "x3   0.115885  (± 0.039372 at 95%)". *)
let parse_approx out =
  List.filter_map
    (fun l ->
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | name :: v :: "(±" :: hw :: _ -> (
          match (float_of_string_opt v, float_of_string_opt hw) with
          | Some v, Some hw -> Some (name, (v, hw))
          | _ -> None)
      | _ -> None)
    (Util.lines out)

(* Is [out] a correct answer for [input]?  [first] is the first output
   of the same input in this run: approx runs must repeat it byte for
   byte (same seed). *)
let correct input ~first out =
  match input.check with
  | Db e ->
    let answer, entries = Refs.parse_lineage out in
    answer = ((fst e).Refs.total = 1) && Refs.check e entries
  | Formula (f, exact, circuit) ->
    let values = Refs.parse_shap out in
    List.length values = Array.length exact
    && values = circuit
    && List.for_all
         (fun (name, v) ->
           match Gen.var_index f name with
           | Some i -> Refs.equals_exact exact.(i - 1) v
           | None -> false)
         values
  | Approx (f, exact) ->
    let ests = parse_approx out in
    let n = Array.length exact in
    let covered =
      List.length
        (List.filter
           (fun (name, (v, hw)) ->
             match Gen.var_index f name with
             | Some i ->
               (* printed to 6 decimals *)
               Float.abs (v -. exact.(i - 1)) <= hw +. 2e-6
             | _ -> false)
           ests)
    in
    List.length ests = n
    && float_of_int covered >= (1.0 -. approx_delta) *. float_of_int n
    && (match first with Some f -> f = out | None -> true)

type sample = { wall : float; alloc_words : float; top_heap_words : float }

type result = {
  setup : float;  (** median start-up seconds *)
  samples : (input * sample list) list;  (** per input, per round *)
  tally : Util.tally;
}

let run ~shapmc ~dir ~seconds inputs =
  let tally = Util.tally () in
  let firsts = Hashtbl.create 16 in
  let per = Hashtbl.create 16 in
  let t0 = Util.now () in
  let rec rounds () =
    List.iter
      (fun input ->
        for _ = 1 to input.repeats do
          let r = Proc.run ~dir ~prog:shapmc input.args in
          let first = Hashtbl.find_opt firsts input.label in
          let ok = r.ok && correct input ~first r.out in
          if first = None then Hashtbl.replace firsts input.label r.out;
          Util.record tally ~what:input.label ok;
          let stat name = Option.value ~default:nan (Proc.gc_stat r.err name) in
          let s =
            { wall = r.wall; alloc_words = stat "allocated_words";
              top_heap_words = stat "top_heap_words" }
          in
          Hashtbl.replace per input.label
            (s :: Option.value ~default:[] (Hashtbl.find_opt per input.label))
        done)
      inputs;
    if Util.now () -. t0 < seconds then rounds ()
  in
  rounds ();
  let samples = List.map (fun i -> (i, List.rev (Hashtbl.find per i.label))) inputs in
  (* per-input figures on stderr, for the reference tables *)
  List.iter
    (fun (i, ss) ->
      Printf.eprintf "perfbench: %-16s runs %3d  wall p50 %9.2f ms  alloc %12.0f words  top heap %9.0f words\n"
        i.label (List.length ss)
        (1000.0 *. Util.median (List.map (fun s -> s.wall) ss))
        (Util.median (List.map (fun s -> s.alloc_words) ss))
        (Util.median (List.map (fun s -> s.top_heap_words) ss)))
    samples;
  (* set-up: the program's fixed cost of one invocation — launch, parse
     the smallest input, print — over runs spread across the whole run *)
  let setup = Util.median (List.map (fun s -> s.wall) (snd (List.hd samples))) in
  { setup; samples; tally }

(* End-to-end metrics of a CLI run.  A request is one invocation.  Times
   are per-input medians over rounds, so one slow round moves nothing;
   [read_p50_ms] and [read_p90_ms] are percentiles over the inputs. *)
let metrics r : Util.metric list =
  let exact = List.filter (fun (i, _) -> i.values > 0) r.samples in
  let approx = List.filter (fun (i, _) -> i.values = 0) r.samples in
  let med f ss = Util.median (List.map f ss) in
  let values = float_of_int (List.fold_left (fun a (i, _) -> a + i.values) 0 exact) in
  let walls_ms = List.map (fun (_, ss) -> 1000.0 *. med (fun s -> s.wall) ss) exact in
  let wall = Util.sum walls_ms /. 1000.0 in
  let alloc = Util.sum (List.map (fun (_, ss) -> med (fun s -> s.alloc_words) ss) exact) in
  let heap =
    List.fold_left
      (fun a (_, ss) -> List.fold_left (fun a s -> Float.max a s.top_heap_words) a ss)
      0.0 r.samples
  in
  [ ("setup_s", r.setup, "s");
    ("values_per_s", values /. wall, "values/s");
    ("alloc_kb_per_value", alloc *. 8.0 /. 1024.0 /. values, "KB/value");
    ("peak_heap_mb", heap *. 8.0 /. 1048576.0, "MB");
    ("req_per_s", float_of_int (List.length exact) /. wall, "req/s");
    ("read_p50_ms", Util.median walls_ms, "ms");
    ("read_p90_ms", Util.quantile 0.9 walls_ms, "ms");
    ( "approx_p50_ms",
      Util.median (List.concat_map (fun (_, ss) -> List.map (fun s -> s.wall *. 1000.0) ss) approx),
      "ms" );
    ( "alloc_kb_per_req",
      alloc *. 8.0 /. 1024.0 /. float_of_int (List.length exact),
      "KB/req" ) ]
