(* Seeded input generator.  Every instance is a pure function of
   (seed, instance tag): the same seed gives byte-identical files.  The
   program under test only ever sees the rendered text.

   Database families, all self-join-free Boolean CQs:
   - [Pair]  R1(x), R2(x), every x in both relations (hierarchical);
   - [Star]  R(x), S(x,y), both endogenous (hierarchical);
   - [Exo]   R(x), S(x,y), S exogenous (hierarchical, data-heavy scan);
   - [Bip]   R(x), S(x,y), T(y), all endogenous (non-hierarchical: the
             #P-hard side, solved by lineage compilation). *)

type family = Pair | Star | Exo | Bip

let family_name = function
  | Pair -> "pair"
  | Star -> "star"
  | Exo -> "exo"
  | Bip -> "bip"

type fact = { rel : string; args : int list }

type db = {
  name : string;  (** file stem; also the daemon's query name *)
  family : family;
  decls : (string * bool * int) list;  (** relation, endogenous?, arity *)
  rows : fact list;  (** file order *)
  query : string;
}

(* The CLI prints a fact as [R(1, 2)]. *)
let key f =
  Printf.sprintf "%s(%s)" f.rel (String.concat ", " (List.map string_of_int f.args))

let is_endo db rel =
  List.exists (fun (r, endo, _) -> r = rel && endo) db.decls

(* Endogenous facts in file order: the players. *)
let players db = List.filter (fun f -> is_endo db f.rel) db.rows

let render db =
  let b = Buffer.create 4096 in
  Printf.bprintf b "# %s instance generated by perfbench\n" (family_name db.family);
  List.iter
    (fun (r, endo, arity) ->
      Printf.bprintf b "rel %s %s %d\n" r (if endo then "endo" else "exo") arity)
    db.decls;
  List.iter
    (fun f ->
      Printf.bprintf b "row %s %s\n" f.rel
        (String.concat " " (List.map string_of_int f.args)))
    db.rows;
  Printf.bprintf b "query %s\n" db.query;
  Buffer.contents b

(* Shapes are drawn from the instance tag alone, so every seed gives the
   same shapes and the same file order: the seed only draws the
   constants.  Runs with different seeds then do the same work (the
   program's allocation repeats exactly across seeds), yet no two seeds
   give the same files. *)
let shape_rng ~tag = Random.State.make [| Hashtbl.hash tag |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [labels ~seed ~tag k] — k distinct six-digit constants in increasing
   order.  Increasing, so that anything the program orders by value
   sees the shape's order whatever the seed; six digits, so that every
   printed fact has the same length. *)
let labels ~seed ~tag k =
  let st = Random.State.make [| seed; Hashtbl.hash tag |] in
  let seen = Hashtbl.create (2 * k) in
  let rec go acc n =
    if n = 0 then acc
    else
      let v = 100_000 + Random.State.int st 900_000 in
      if Hashtbl.mem seen v then go acc n
      else begin
        Hashtbl.add seen v ();
        go (v :: acc) (n - 1)
      end
  in
  let a = Array.of_list (go [] k) in
  Array.sort compare a;
  a

(* [pair ~k]: 2k endogenous facts, k matched pairs. *)
let pair ~seed ~name ~k =
  let st = shape_rng ~tag:name and c = labels ~seed ~tag:name k in
  let rows =
    List.init k (fun i -> { rel = "R1"; args = [ c.(i) ] })
    @ List.init k (fun i -> { rel = "R2"; args = [ c.(i) ] })
  in
  { name; family = Pair;
    decls = [ ("R1", true, 1); ("R2", true, 1) ];
    rows = shuffle st rows;
    query = "R1(x), R2(x)" }

(* [star ~n]: n endogenous facts, a quarter of them centres R(x), the
   rest leaves S(x,y) spread at random over the centres (each centre has
   at least one leaf). *)
let star ~seed ~name ~n =
  let st = shape_rng ~tag:name and c = labels ~seed ~tag:name n in
  let centres = max 1 (n / 4) in
  let leaves =
    List.init (n - centres) (fun i ->
        let x = if i < centres then i else Random.State.int st centres in
        { rel = "S"; args = [ c.(x); c.(centres + i) ] })
  in
  { name; family = Star;
    decls = [ ("R", true, 1); ("S", true, 2) ];
    rows = shuffle st (List.init centres (fun x -> { rel = "R"; args = [ c.(x) ] }) @ leaves);
    query = "R(x), S(x,y)" }

(* [exo ~r ~s]: r endogenous R(x) facts and s exogenous S(x,y) tuples;
   four in five S tuples hang off an R value, the rest off s/5 values
   outside R, so some R facts have no support and some S tuples join
   nothing. *)
let exo ~seed ~name ~r ~s =
  let st = shape_rng ~tag:name in
  let outside = max 1 (s / 5) in
  let c = labels ~seed ~tag:name (r + outside + s) in
  let tuples =
    List.init s (fun i ->
        let x =
          if Random.State.int st 5 < 4 then Random.State.int st r
          else r + Random.State.int st outside
        in
        { rel = "S"; args = [ c.(x); c.(r + outside + i) ] })
  in
  { name; family = Exo;
    decls = [ ("R", true, 1); ("S", false, 2) ];
    rows = List.init r (fun x -> { rel = "R"; args = [ c.(x) ] }) @ shuffle st tuples;
    query = "R(x), S(x,y)" }

(* [bip ~players]: a bipartite R(x), S(x,y), T(y) encoding with a fifth
   of the players on each side and the rest as random edges. *)
let bip ~seed ~name ~players =
  let st = shape_rng ~tag:name in
  let a = max 2 (players / 5) in
  let e = min (players - (2 * a)) (a * a) in
  let c = labels ~seed ~tag:name (2 * a) in
  let cells = List.concat_map (fun i -> List.init a (fun j -> (i, j))) (List.init a Fun.id) in
  let edges = List.filteri (fun i _ -> i < e) (shuffle st cells) in
  { name; family = Bip;
    decls = [ ("R", true, 1); ("S", true, 2); ("T", true, 1) ];
    rows =
      shuffle st
        (List.init a (fun i -> { rel = "R"; args = [ c.(i) ] })
         @ List.init a (fun j -> { rel = "T"; args = [ c.(a + j) ] })
         @ List.map (fun (i, j) -> { rel = "S"; args = [ c.(i); c.(a + j) ] }) edges);
    query = "R(x), S(x,y), T(y)" }

(* Boolean formulas for [shapmc shap]: a DNF over variables 1..n, each
   clause a list of (variable, positive?) literals.  Variable i is
   printed as [names.(i-1)]: six letters drawn from the seed, in
   increasing order, which the parser numbers by first occurrence, so
   the program sees the same formula shape whatever the seed. *)
type formula = {
  fname : string;
  nvars : int;
  names : string array;
  clauses : (int * bool) list list;
}

let names ~seed ~tag n =
  let st = Random.State.make [| seed; Hashtbl.hash tag; 1 |] in
  let seen = Hashtbl.create (2 * n) in
  let rec go acc k =
    if k = 0 then acc
    else
      let s = "v" ^ String.init 5 (fun _ -> Char.chr (97 + Random.State.int st 26)) in
      if Hashtbl.mem seen s then go acc k
      else begin
        Hashtbl.add seen s ();
        go (s :: acc) (k - 1)
      end
  in
  let a = Array.of_list (go [] n) in
  Array.sort compare a;
  a

let var_index f name =
  let rec find i = if i >= f.nvars then None else if f.names.(i) = name then Some (i + 1) else find (i + 1) in
  find 0

let formula_text f =
  String.concat " | "
    (List.map
       (fun c ->
         String.concat " & "
           (List.map
              (fun (v, pos) -> (if pos then "" else "!") ^ f.names.(v - 1))
              c))
       f.clauses)

(* A path v_{p1} & v_{p2} | v_{p2} & v_{p3} | ... under a fixed
   relabelling of the variables. *)
let path ~seed ~name ~n =
  let p = Array.of_list (shuffle (shape_rng ~tag:name) (List.init n succ)) in
  { fname = name; nvars = n; names = names ~seed ~tag:name n;
    clauses = List.init (n - 1) (fun i -> [ (p.(i), true); (p.(i + 1), true) ]) }

(* A random DNF: n clauses of 2 or 3 distinct variables, one literal in
   five negated; every variable occurs. *)
let random_dnf ~seed ~name ~n =
  let st = shape_rng ~tag:name in
  let clause () =
    let w = 2 + Random.State.int st 2 in
    List.filteri (fun i _ -> i < w) (shuffle st (List.init n succ))
    |> List.map (fun v -> (v, Random.State.int st 5 > 0))
  in
  let cs = Array.init n (fun _ -> clause ()) in
  for v = 1 to n do
    if not (Array.exists (List.exists (fun (u, _) -> u = v)) cs) then begin
      let i = Random.State.int st n in
      cs.(i) <- (v, true) :: cs.(i)
    end
  done;
  { fname = name; nvars = n; names = names ~seed ~tag:name n; clauses = Array.to_list cs }

(* The lineage of a database as a positive DNF formula, players in file
   order as variables 1..n. *)
let lineage_formula ~seed db clauses =
  let n = List.length (players db) in
  { fname = db.name ^ "-lineage"; nvars = n; names = names ~seed ~tag:db.name n;
    clauses = List.map (List.map (fun i -> (i + 1, true))) clauses }
