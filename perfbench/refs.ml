(* Correctness references, written apart from the library: no [Naive],
   no [shapley_brute], no [Rat].  Three kinds:

   - exhaustive subset enumeration in native-int fractions, exact for up
     to 20 players (20! < max_int);
   - closed forms: a pair database gives every fact 1/n; an exogenous
     star gives each supported R fact 1/k and every other fact 0;
   - generating functions modulo two primes for hierarchical lineages of
     any size: the lineage is an OR of independent components, each an
     AND of ORs over disjoint fact groups, so the size-stratified counts
     of Eq. (2) are coefficients of products of (1+t)^m polynomials.

   Printed rationals of any length are compared modulo both primes; the
   chance that a wrong value agrees on both is about 1e-18. *)

let primes = [| 1_000_000_007; 998_244_353 |]

(* ---- printed values ------------------------------------------------ *)

type value = { num : string; den : string }

let is_int_text s =
  let s = if String.length s > 0 && s.[0] = '-' then String.sub s 1 (String.length s - 1) else s in
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let parse_value s =
  match String.index_opt s '/' with
  | None -> if is_int_text s then Some { num = s; den = "1" } else None
  | Some i ->
    let num = String.sub s 0 i and den = String.sub s (i + 1) (String.length s - i - 1) in
    if is_int_text num && is_int_text den && den.[0] <> '-' && den <> "0" then
      Some { num; den }
    else None

let mod_of_text p s =
  let neg = String.length s > 0 && s.[0] = '-' in
  let r = ref 0 in
  String.iteri
    (fun i c -> if not (i = 0 && neg) then r := ((!r * 10) + Char.code c - 48) mod p)
    s;
  if neg then (p - !r) mod p else !r

let rec pow_mod p a e =
  if e = 0 then 1
  else
    let h = pow_mod p (a * a mod p) (e / 2) in
    if e land 1 = 1 then h * a mod p else h

let inv_mod p a = pow_mod p a (p - 2)

let value_mod p v = mod_of_text p v.num * inv_mod p (mod_of_text p v.den) mod p

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let reduce (n, d) =
  let g = gcd n d in
  if g = 0 then (0, 1) else (n / g, d / g)

(* Exact comparison with a native-int fraction; printed values too long
   for a native int cannot equal it. *)
let equals_exact (n, d) v =
  let fits s = String.length s <= 18 in
  fits v.num && fits v.den
  && reduce (int_of_string v.num, int_of_string v.den) = reduce (n, d)

let equals_mod refs v =
  Array.for_all2 (fun p r -> value_mod p v = r) primes refs

(* ---- exhaustive enumeration -------------------------------------- *)

let max_enum_players = 20

let factorial k =
  let r = ref 1 in
  for i = 2 to k do r := !r * i done;
  !r

(* [enum_shapley n clauses] — Shapley value of each of the n players of
   the DNF game whose clauses are (positive mask, negative mask) pairs:
   Σ_{S ∌ i} |S|!(n−|S|−1)!/n! · (v(S ∪ i) − v(S)). *)
let enum_shapley n clauses =
  if n > max_enum_players then invalid_arg "enum_shapley: too many players";
  let size = 1 lsl n in
  let v = Bytes.make size '\000' in
  let pc = Array.make size 0 in
  for s = 0 to size - 1 do
    if s > 0 then pc.(s) <- pc.(s lsr 1) + (s land 1);
    if List.exists (fun (pos, neg) -> s land pos = pos && s land neg = 0) clauses
    then Bytes.unsafe_set v s '\001'
  done;
  let w = Array.init n (fun k -> factorial k * factorial (n - 1 - k)) in
  let total = factorial n in
  Array.init n (fun i ->
      let bit = 1 lsl i in
      let num = ref 0 in
      for s = 0 to size - 1 do
        if s land bit = 0 then begin
          let d =
            Char.code (Bytes.unsafe_get v (s lor bit)) - Char.code (Bytes.unsafe_get v s)
          in
          if d <> 0 then num := !num + (d * w.(pc.(s)))
        end
      done;
      reduce (!num, total))

(* ---- generating functions mod p ---------------------------------- *)

let poly_mul p a b =
  let r = Array.make (Array.length a + Array.length b - 1) 0 in
  Array.iteri
    (fun i x ->
      if x <> 0 then
        Array.iteri (fun j y -> r.(i + j) <- (r.(i + j) + (x * y)) mod p) b)
    a;
  r

(* [hier_mod p ~n ~dummies comps] — comps are components, each a list of
   group sizes; the lineage is OR_x AND_g OR(group g of x) over n
   players, [dummies] of them in no component.  Returns, per component
   and group, the Shapley value mod p of any fact in that group:
   Σ_k Δ_k k!(n−1−k)!/n! with Δ = Π_{x'≠x} U_{x'} · (1+t)^d ·
   Π_{g'≠g} ((1+t)^{m_g'} − 1), where U_x = (1+t)^{m_x} − Π_g ((1+t)^{m_g} − 1)
   generates the assignments falsifying component x. *)
let hier_mod p ~n ~dummies comps =
  let fact = Array.make (n + 1) 1 in
  for i = 1 to n do fact.(i) <- fact.(i - 1) * i mod p done;
  let ifact = Array.map (inv_mod p) fact in
  let binom m = Array.init (m + 1) (fun j -> fact.(m) * ifact.(j) mod p * ifact.(m - j) mod p) in
  let sat m = let b = binom m in b.(0) <- 0; b in
  let prod = List.fold_left (poly_mul p) [| 1 |] in
  let unsat groups =
    let s = prod (List.map sat groups) in
    Array.mapi (fun j c -> (c - s.(j) + p) mod p) (binom (List.fold_left ( + ) 0 groups))
  in
  let us = List.map unsat comps in
  let u_all = List.fold_left (poly_mul p) (binom dummies) us in
  (* exact division by a polynomial with constant term 1 *)
  let divide a u =
    let len = Array.length a - Array.length u + 1 in
    let q = Array.make len 0 in
    for k = 0 to len - 1 do
      let acc = ref a.(k) in
      for j = 1 to min k (Array.length u - 1) do
        acc := (!acc - (u.(j) * q.(k - j) mod p) + p) mod p
      done;
      q.(k) <- !acc
    done;
    q
  in
  let inv_n = ifact.(n) in
  List.map2
    (fun groups u ->
      let rest = divide u_all u in
      List.mapi
        (fun gi _ ->
          let others = List.filteri (fun gj _ -> gj <> gi) groups in
          let delta = poly_mul p rest (prod (List.map sat others)) in
          let acc = ref 0 in
          Array.iteri
            (fun k c ->
              if k <= n - 1 then
                acc := (!acc + (c * fact.(k) mod p * fact.(n - 1 - k) mod p)) mod p)
            delta;
          !acc * inv_n mod p)
        groups)
    comps us

(* ---- expectations for one database ------------------------------- *)

type expect = {
  keys : string array;  (** player keys, file order *)
  exact : (int * int) array option;  (** closed form or enumeration *)
  modular : int array array option;  (** per player, per prime *)
  total : int;  (** the values must sum to this (efficiency) *)
}

(* Lineage clauses as lists of player indices, by joining the rows. *)
let clauses_of (db : Gen.db) =
  let ps = Array.of_list (Gen.players db) in
  let idx = Hashtbl.create 64 in
  Array.iteri (fun i f -> Hashtbl.replace idx (Gen.key f) i) ps;
  let find rel args = Hashtbl.find_opt idx (Gen.key { Gen.rel; args }) in
  let present rel args = List.exists (fun (f : Gen.fact) -> f.rel = rel && f.args = args) db.rows in
  let rows rel = List.filter (fun (f : Gen.fact) -> f.rel = rel) db.rows in
  let clauses =
    match db.family with
    | Gen.Pair ->
      List.filter_map
        (fun (f : Gen.fact) ->
          match (find "R1" f.args, find "R2" f.args) with
          | Some a, Some b -> Some [ a; b ]
          | _ -> None)
        (rows "R1")
    | Gen.Star ->
      List.filter_map
        (fun (f : Gen.fact) ->
          match (find "R" [ List.hd f.args ], find "S" f.args) with
          | Some a, Some b -> Some [ a; b ]
          | _ -> None)
        (rows "S")
    | Gen.Exo ->
      List.filter_map
        (fun (f : Gen.fact) ->
          if List.exists (fun (s : Gen.fact) -> List.hd s.args = List.hd f.args) (rows "S")
          then Option.map (fun a -> [ a ]) (find "R" f.args)
          else None)
        (rows "R")
    | Gen.Bip ->
      List.filter_map
        (fun (f : Gen.fact) ->
          match f.args with
          | [ x; y ] when present "R" [ x ] && present "T" [ y ] ->
            Some (List.filter_map Fun.id [ find "R" [ x ]; find "S" f.args; find "T" [ y ] ])
          | _ -> None)
        (rows "S")
  in
  (ps, clauses)

(* Hierarchical lineages grouped into components: per x, the groups of
   players of each endogenous atom. *)
let components (db : Gen.db) clauses =
  match db.family with
  | Gen.Pair | Gen.Exo -> List.map (fun c -> List.map (fun i -> [ i ]) c) clauses
  | Gen.Star ->
    (* clauses are [R(x); S(x,y)]: group the S players by their R *)
    let by = Hashtbl.create 64 in
    List.iter
      (function
        | [ r; s ] ->
          Hashtbl.replace by r (s :: Option.value ~default:[] (Hashtbl.find_opt by r))
        | _ -> ())
      clauses;
    Hashtbl.fold (fun r ss acc -> [ [ r ]; ss ] :: acc) by []
  | Gen.Bip -> invalid_arg "components: not hierarchical"

let expect (db : Gen.db) =
  let ps, clauses = clauses_of db in
  let n = Array.length ps in
  let keys = Array.map Gen.key ps in
  let total = if clauses = [] then 0 else 1 in
  let in_clause = Array.make n false in
  List.iter (List.iter (fun i -> in_clause.(i) <- true)) clauses;
  let exact =
    if n <= max_enum_players then
      Some
        (enum_shapley n
           (List.map (fun c -> (List.fold_left (fun m i -> m lor (1 lsl i)) 0 c, 0)) clauses))
    else
      match db.family with
      | Gen.Pair -> Some (Array.make n (1, n))
      | Gen.Exo ->
        let k = List.length clauses in
        Some (Array.map (fun c -> if c then (1, k) else (0, 1)) in_clause)
      | Gen.Bip | Gen.Star -> None
  in
  let modular =
    match db.family with
    | Gen.Star when n > max_enum_players ->
      let comps = components db clauses in
      let dummies = n - Array.fold_left (fun a c -> if c then a + 1 else a) 0 in_clause in
      let per_prime =
        Array.map
          (fun p ->
            let vals = hier_mod p ~n ~dummies (List.map (List.map List.length) comps) in
            let out = Array.make n 0 in
            List.iter2 (fun groups gvals -> List.iter2 (fun g v -> List.iter (fun i -> out.(i) <- v) g) groups gvals) comps vals;
            out)
          primes
      in
      Some (Array.init n (fun i -> Array.map (fun a -> a.(i)) per_prime))
    | _ -> None
  in
  ({ keys; exact; modular; total }, in_clause)

(* ---- checking printed output ------------------------------------- *)

(* [check (e, in_clause) values] — [values] maps keys to printed
   values.  Every player appears exactly once, matches its reference,
   players in no lineage clause are 0, and the values sum to [e.total]
   modulo both primes (efficiency). *)
let check (e, in_clause) (values : (string * value) list) =
  let n = Array.length e.keys in
  let tbl = Hashtbl.create (2 * n) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) values;
  List.length values = n
  && Hashtbl.length tbl = n
  && Array.for_all (Hashtbl.mem tbl) e.keys
  &&
  let v i = Hashtbl.find tbl e.keys.(i) in
  let ok = ref true in
  for i = 0 to n - 1 do
    if not in_clause.(i) && (v i).num <> "0" then ok := false;
    (match e.exact with Some a -> if not (equals_exact a.(i) (v i)) then ok := false | None -> ());
    match e.modular with Some m -> if not (equals_mod m.(i) (v i)) then ok := false | None -> ()
  done;
  !ok
  && Array.for_all
       (fun p ->
         let s = ref 0 in
         for i = 0 to n - 1 do s := (!s + value_mod p (v i)) mod p done;
         !s = e.total mod p)
       primes

(* Shapley values of a formula by enumeration: x1..xn are players 0..n-1. *)
let expect_formula (f : Gen.formula) =
  let mask lits pos =
    List.fold_left (fun m (v, p) -> if p = pos then m lor (1 lsl (v - 1)) else m) 0 lits
  in
  enum_shapley f.nvars (List.map (fun c -> (mask c true, mask c false)) f.clauses)

(* ---- output parsers ---------------------------------------------- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* [shapmc lineage] prints "  R(1, 2)  num/den (~ f)" per fact. *)
let parse_lineage out =
  let answer = List.exists (fun l -> l = "answer: true") (Util.lines out) in
  let entries =
    List.filter_map
      (fun l ->
        if not (Util.starts_with ~prefix:"  " l) then None
        else
          match find_sub l " (~ " with
          | None -> None
          | Some j ->
            let before = String.sub l 2 (j - 2) in
            (match String.rindex_opt before ' ' with
             | Some k when k > 0 && before.[k - 1] = ' ' ->
               let key = String.sub before 0 (k - 1) in
               Option.map (fun v -> (key, v))
                 (parse_value (String.sub before (k + 1) (String.length before - k - 1)))
             | _ -> None))
      (Util.lines out)
  in
  (answer, entries)

(* [shapmc shap] prints "x3           -1/6           (~ -0.166667)". *)
let parse_shap out =
  List.filter_map
    (fun l ->
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | name :: v :: "(~" :: _ when name <> "sum" ->
        Option.map (fun v -> (name, v)) (parse_value v)
      | _ -> None)
    (Util.lines out)
