(* Old-vs-new engine equivalence: the vectorized columnar {!Executor}
   against the frozen row-at-a-time {!Row_engine}, over an identical
   sequence of EXECUTE steps per (workload, query, plan, budget,
   environment) cell. Everything observable must be bit-identical: charged
   cost, the reference's [stat_obs] (counts, distincts, stats_cost,
   obs_nodes in completion order) against the same views of the new
   engine's node records, result rows, total produced, Σ objects,
   remaining budget, and which exception (Timeout / fault / deadline) ends
   a step. *)

open Monsoon_util
open Monsoon_storage
open Monsoon_relalg
open Monsoon_workloads
open Monsoon_telemetry
module E = Monsoon_exec.Executor
module R = Row_engine

(* One fingerprint string per step: hex floats are bit-exact, Expr.key is
   shape-exact, and string equality gives readable Alcotest diffs. *)
let fp_counts cs =
  String.concat ","
    (List.map (fun (m, c) -> Printf.sprintf "%d=%h" (m : Relset.t) c) cs)

let fp_distincts ds =
  String.concat ","
    (List.map (fun (tm, d) -> Printf.sprintf "%d=%h" tm d) ds)

let fp_nodes ns =
  String.concat ","
    (List.map (fun (e, c) -> Printf.sprintf "%s=%h" (Expr.key e) c) ns)

let fp_rows rows =
  (* Cardinality plus a content hash: full row dumps would drown the diff. *)
  Printf.sprintf "%d#%Lx" (Array.length rows)
    (Array.fold_left
       (fun acc row ->
         Array.fold_left
           (fun acc v -> Hashing.combine acc (Value.hash v))
           (Hashing.combine acc 17L) row)
       0L rows)

let run_new ?env cat q ~budget exprs =
  let bud = E.budget budget in
  let exec = E.create ?env cat q bud in
  let steps =
    List.map
      (fun e ->
        match E.execute exec e with
        | cost ->
          (* The reference's observation lists, rebuilt from the node
             records: counts and distincts newest node first, node rows
             and the Σ cost in completion order. *)
          let sigma, rel =
            List.partition
              (fun (n : E.node) ->
                match n.E.expr with Expr.Stats _ -> true | _ -> false)
              (E.nodes exec)
          in
          Printf.sprintf "cost=%h counts=[%s] dist=[%s] sc=%h nodes=[%s] rows=%s"
            cost
            (fp_counts
               (List.rev_map
                  (fun (n : E.node) -> (Expr.mask n.E.expr, n.E.rows))
                  rel))
            (fp_distincts
               (List.concat_map (fun (n : E.node) -> n.E.distincts)
                  (List.rev sigma)))
            (List.fold_left (fun acc (n : E.node) -> acc +. n.E.rows) 0.0 sigma)
            (fp_nodes (List.map (fun (n : E.node) -> (n.E.expr, n.E.rows)) rel))
            (fp_rows (E.result_rows exec e))
        | exception E.Timeout -> "timeout"
        | exception Fault.Injected reason -> "fault:" ^ reason
        | exception Deadline.Expired -> "deadline"
        | exception Invalid_argument msg -> "raise:" ^ msg)
      exprs
  in
  Printf.sprintf "%s | produced=%h sigma=%h left=%h"
    (String.concat " ; " steps)
    (E.total_produced exec) (E.sigma_objects exec) bud.E.remaining

let run_old ?env cat q ~budget exprs =
  let bud = R.budget budget in
  let exec = R.create ?env cat q bud in
  let steps =
    List.map
      (fun e ->
        match R.execute exec e with
        | cost, obs ->
          Printf.sprintf "cost=%h counts=[%s] dist=[%s] sc=%h nodes=[%s] rows=%s"
            cost
            (fp_counts obs.R.obs_counts)
            (fp_distincts obs.R.obs_distincts)
            obs.R.obs_stats_cost
            (fp_nodes obs.R.obs_nodes)
            (fp_rows (R.result_rows exec e))
        | exception R.Timeout -> "timeout"
        | exception Fault.Injected reason -> "fault:" ^ reason
        | exception Deadline.Expired -> "deadline"
        | exception Invalid_argument msg -> "raise:" ^ msg)
      exprs
  in
  Printf.sprintf "%s | produced=%h sigma=%h left=%h"
    (String.concat " ; " steps)
    (R.total_produced exec) (R.sigma_objects exec) bud.R.remaining

let times_out fp = String.length fp >= 7 && String.sub fp 0 7 = "timeout"

let check_cell ~label ?env_new ?env_old cat q ~budget exprs =
  Alcotest.(check string)
    label
    (run_old ?env:env_old cat q ~budget exprs)
    (run_new ?env:env_new cat q ~budget exprs)

let left_deep order =
  List.fold_left
    (fun acc i -> Expr.join acc (Expr.base i))
    (Expr.base (List.hd order))
    (List.tl order)

(* Step sequences per query: a Σ pass on a base, a join prefix (later
   reused from cache), the full left-deep plan, the full plan again (pure
   cache hit), then Σ on the now-cached prefix, then the reversed join
   order (distinct shape, same final mask). *)
let step_sequences q =
  let n = Query.n_rels q in
  let fwd = List.init n Fun.id in
  let rev = List.rev fwd in
  if n = 1 then [ [ Expr.stats (Expr.base 0); Expr.base 0 ] ]
  else begin
    let prefix = left_deep (List.filteri (fun i _ -> i < 2) fwd) in
    [ [ Expr.stats (Expr.base 0);
        prefix;
        left_deep fwd;
        left_deep fwd;
        Expr.stats prefix;
        left_deep rev ] ]
  end

let check_workload ?(budget = 1e7) ?(queries = max_int) (w : Workload.t) =
  List.iteri
    (fun i (name, q) ->
      if i < queries then
        List.iter
          (fun exprs ->
            check_cell
              ~label:(Printf.sprintf "%s/%s" w.Workload.name name)
              w.Workload.catalog q ~budget exprs)
          (step_sequences q))
    w.Workload.queries

let test_tpch () =
  check_workload ~queries:4
    (Tpch.workload { Tpch.seed = 11; scale = 0.05; skew = Tpch.Plain })

let test_tpch_skewed () =
  check_workload ~queries:3
    (Tpch.workload { Tpch.seed = 12; scale = 0.05; skew = Tpch.High })

let test_ott () =
  check_workload ~queries:3
    (Ott.workload { Ott.seed = 13; scale = 0.2; domain = 40 })

let test_imdb () =
  check_workload ~queries:3
    (Imdb.workload { Imdb.seed = 14; scale = 0.05 })

(* Bushy steps, where neither join input is a base table: two cached
   composites joined (in both step orders), and the same join after a Σ
   on each composite. These pin the result row layout and order of
   composite ⨝ composite. *)
let bushy_sequences ls rs =
  let l = left_deep ls and r = left_deep rs in
  let top = Expr.join (Expr.leaf (Expr.mask l)) (Expr.leaf (Expr.mask r)) in
  [ [ l; r; top ]; [ r; l; top ]; [ Expr.stats l; Expr.stats r; top ] ]

let check_bushy (w : Workload.t) cells =
  List.iter
    (fun (name, ls, rs) ->
      let q = List.assoc name w.Workload.queries in
      List.iteri
        (fun i exprs ->
          check_cell
            ~label:(Printf.sprintf "bushy %s/%s #%d" w.Workload.name name i)
            w.Workload.catalog q ~budget:1e7 exprs)
        (bushy_sequences ls rs))
    cells

(* OTT results are empty once both filtered instances are covered: the
   oq18 shape [a,b] ⨝ [c,d,e] pins cost and counts, [b,c] ⨝ [d,e] (one
   filter) pins non-empty rows. IMDB's five-instance queries give the
   oq18 shape with rows. *)
let test_bushy () =
  check_bushy
    (Ott.workload { Ott.seed = 19; scale = 0.05; domain = 40 })
    [ ("oq18", [ 0; 1 ], [ 2; 3; 4 ]);
      ("oq18", [ 1; 2 ], [ 3; 4 ]);
      ("oq20", [ 0; 1 ], [ 2; 3 ]) ];
  let imdb = Imdb.workload { Imdb.seed = 14; scale = 0.05 } in
  check_bushy imdb
    (List.filteri
       (fun i _ -> i < 3)
       (List.filter_map
          (fun (name, q) ->
            if Query.n_rels q = 5 then Some (name, [ 0; 1 ], [ 2; 3; 4 ]) else None)
          imdb.Workload.queries))

(* Opaque (non-identity) UDF terms in scan selections, join keys and Σ
   passes are evaluated per tuple inside the vectorized operators; they
   must still match the frozen engine. *)
let test_udf_bench () =
  check_workload ~queries:2
    (Udf_bench.workload
       { Udf_bench.seed = 15; imdb_scale = 0.04; tpch_scale = 0.04 })

(* Hostile value semantics: NaN / -0. float join keys, dictionary string
   keys, and a Null-poisoned int column (demoted to the boxed fallback).
   Table C's string dictionary has its own first-appearance order and
   strings A lacks, and its n column holds dates, which never equal A's
   ints. *)
let tricky_fixture () =
  let cat = Catalog.create () in
  let fvals = [| 1.5; Float.nan; -0.0; 0.0; 2.5; Float.nan; 1.5 |] in
  let schema n_ty =
    Schema.make
      [ { Schema.name = "f"; ty = Value.TFloat };
        { Schema.name = "s"; ty = Value.TStr };
        { Schema.name = "n"; ty = n_ty } ]
  in
  let svals = [| "ash"; "birch"; "cedar" |] in
  let mk name n offset =
    Table.of_row_array ~name (schema Value.TInt)
      (Array.init n (fun i ->
           [| Value.Float fvals.((i + offset) mod Array.length fvals);
              Value.Str svals.((i + offset) mod Array.length svals);
              (if (i + offset) mod 7 = 0 then Value.Null else Value.Int (i mod 5))
           |]))
  in
  Catalog.add cat (mk "A" 60 0);
  Catalog.add cat (mk "B" 45 3);
  let cvals = [| "yew"; "cedar"; "elm"; "ash"; "oak" |] in
  Catalog.add cat
    (Table.of_row_array ~name:"C" (schema Value.TDate)
       (Array.init 80 (fun i ->
            [| Value.Float fvals.((i + 2) mod Array.length fvals);
               Value.Str cvals.(i mod Array.length cvals);
               Value.Date (i mod 7) |])));
  cat

(* A ⨝ [right] on [on]; [key] replaces the right side's identity key term
   by an opaque UDF over the given columns. *)
let tricky_query ?(right = "B") ?key ~on ~select () =
  let b = Query.Builder.create ~name:(Printf.sprintf "tricky-%s" on) in
  let a = Query.Builder.rel b ~table:"A" ~alias:"A" in
  let c = Query.Builder.rel b ~table:right ~alias:right in
  let ta = Query.Builder.term b (Udf.identity on) [ (a, on) ] in
  let tb =
    match key with
    | None -> Query.Builder.term b (Udf.identity on) [ (c, on) ]
    | Some (udf, cols) ->
      Query.Builder.term b udf (List.map (fun col -> (c, col)) cols)
  in
  Query.Builder.join_pred b ta tb;
  (match select with
  | Some (col, v) ->
    let ts = Query.Builder.term b (Udf.identity col) [ (a, col) ] in
    Query.Builder.select_pred b ts v
  | None -> ());
  Query.Builder.build b

(* C.s as a probe key, raising at the first row with s = "oak" and
   n = date 6: row 34 of C's 80, where that (s, n) pair first appears. *)
let raising_key =
  Udf.make "s_or_raise" (function
    | [| (Value.Str "oak" as s); Value.Date 6 |] ->
      invalid_arg ("s_or_raise: " ^ Value.to_string s)
    | [| s; _ |] -> s
    | _ -> invalid_arg "s_or_raise: expected two arguments")

let test_tricky_values () =
  let cat = tricky_fixture () in
  let full = Expr.join (Expr.base 0) (Expr.base 1) in
  List.iter
    (fun (right, on, select) ->
      let q = tricky_query ~right ~on ~select () in
      check_cell
        ~label:(Printf.sprintf "tricky join A⨝%s on %s" right on)
        cat q ~budget:1e7
        [ Expr.stats (Expr.base 0); Expr.stats (Expr.base 1); full ])
    [ ("B", "f", None);
      ("B", "s", None);
      ("B", "n", None);
      ("B", "f", Some ("s", Value.Str "birch"));
      ("B", "s", Some ("n", Value.Int 2));
      ("B", "n", Some ("f", Value.Float Float.nan));
      (* Dict keys from two dictionaries. *)
      ("C", "s", None);
      ("C", "s", Some ("n", Value.Int 2));
      (* Int against Date: boxed ints, then (filtered Null-free) typed
         ints, against a date column. *)
      ("C", "n", None);
      ("C", "n", Some ("n", Value.Int 2)) ];
  let rows_of q =
    let exec = E.create cat q (E.budget 1e7) in
    ignore (E.execute exec full);
    Array.length (E.result_rows exec full)
  in
  Alcotest.(check int) "int keys never equal date keys" 0
    (rows_of (tricky_query ~right:"C" ~on:"n" ~select:None ()));
  (* A probe key that raises mid-probe: the tuples of the earlier probe
     rows are emitted (and paid for) first, so a budget short of them
     times out instead. *)
  let q =
    tricky_query ~right:"C" ~key:(raising_key, [ "s"; "n" ]) ~on:"s"
      ~select:None ()
  in
  let before_raise =
    let exec = E.create cat q (E.budget 1e7) in
    (match E.execute exec full with
    | _ -> Alcotest.fail "the probe key should raise"
    | exception Invalid_argument _ -> ());
    E.total_produced exec
  in
  Alcotest.(check bool) "rows emitted before the raise" true
    (before_raise > 100.0);
  List.iter
    (fun budget ->
      let label = Printf.sprintf "probe key raises @%g" budget in
      Alcotest.(check bool) (label ^ " times out iff short")
        (budget < before_raise)
        (times_out (run_new cat q ~budget [ full ]));
      check_cell ~label cat q ~budget [ full ])
    [ before_raise /. 2.0;
      before_raise -. 1.0;
      before_raise;
      before_raise +. 1.0 ]

(* Σ over a join intermediate, so columns gathered from Dict, Floats and
   Boxed (Null-bearing) base columns feed the HLL: a three-key join on s,
   f and the Null-poisoned n (Null = Null under [Value.equal]); then a
   one-key join on s after selections that drop every Null from A.n. *)
let tricky_multi_query ~name ~joins ~selects =
  let b = Query.Builder.create ~name in
  let a = Query.Builder.rel b ~table:"A" ~alias:"A" in
  let c = Query.Builder.rel b ~table:"B" ~alias:"B" in
  let term rel col = Query.Builder.term b (Udf.identity col) [ (rel, col) ] in
  List.iter (fun col -> Query.Builder.join_pred b (term a col) (term c col)) joins;
  List.iter
    (fun (on_a, col, v) ->
      Query.Builder.select_pred b (term (if on_a then a else c) col) v)
    selects;
  Query.Builder.build b

let test_tricky_sigma_on_join () =
  let cat = tricky_fixture () in
  let full = Expr.join (Expr.base 0) (Expr.base 1) in
  List.iter
    (fun (name, joins, selects) ->
      let q = tricky_multi_query ~name ~joins ~selects in
      check_cell ~label:name cat q ~budget:1e7 [ Expr.stats full ];
      check_cell ~label:(name ^ " after join") cat q ~budget:1e7
        [ full; Expr.stats (Expr.leaf (Expr.mask full)) ])
    [ ("sigma s,f,n keys", [ "s"; "f"; "n" ], []);
      ( "sigma s key, null-free n",
        [ "s" ],
        [ (true, "n", Value.Int 2); (false, "f", Value.Float 1.5) ] ) ]

(* Join keys and Σ columns read through each side's row ids. An
   OTT-shaped chain over the OTT tables [tables] (instance [pos] is chain
   position [pos]): consecutive instances joined on both int columns x and
   y, and y pinned to [c] at each [(pos, c)] of [filters]. *)
let ott_chain_query ~name tables ~filters =
  let b = Query.Builder.create ~name in
  let rels =
    List.mapi
      (fun pos ti ->
        Query.Builder.rel b ~table:(Printf.sprintf "ott%d" (ti + 1))
          ~alias:(Printf.sprintf "c%d" pos))
      tables
  in
  let at rel col = Query.Builder.term b (Udf.identity col) [ (rel, col) ] in
  let rec chain = function
    | a :: (c :: _ as rest) ->
      Query.Builder.join_pred b (at a "x") (at c "x");
      Query.Builder.join_pred b (at a "y") (at c "y");
      chain rest
    | [ _ ] | [] -> ()
  in
  chain rels;
  List.iter
    (fun (pos, c) ->
      Query.Builder.select_pred b (at (List.nth rels pos) "y") (Value.Int c))
    filters;
  Query.Builder.build b

let test_read_through_ids () =
  let cat = Ott.generate { Ott.seed = 21; scale = 0.1; domain = 40 } in
  (* Both ends pinned to one constant: every join emits. *)
  let q =
    ott_chain_query ~name:"chain-same" [ 0; 1; 2; 3 ]
      ~filters:[ (0, 2); (3, 2) ]
  in
  let p2 = left_deep [ 0; 1 ] and p3 = left_deep [ 0; 1; 2 ] in
  let cached e = Expr.leaf (Expr.mask e) in
  let cells =
    [ (* A filtered build side against a three-instance probe side. *)
      ("3-instance probe", [ p3; Expr.join (cached p3) (Expr.base 3) ]);
      ("3-instance probe, left", [ p3; Expr.join (Expr.base 3) (cached p3) ]);
      (* The two-instance side is the smaller: it builds, in either
         position. *)
      ("2-instance build", [ p2; Expr.join (cached p2) (Expr.base 2) ]);
      ("2-instance build, right", [ p2; Expr.join (Expr.base 2) (cached p2) ]);
      (* Σ over filtered two- and three-instance intermediates. *)
      ("sigma 2-instance", [ Expr.stats p2; Expr.stats p3 ]) ]
  in
  let rows q e =
    let exec = E.create cat q (E.budget 1e9) in
    ignore (E.execute exec e);
    Array.length (E.result_rows exec e)
  in
  let n2 = rows q p2 and n3 = rows q p3 and n_base = rows q (Expr.base 3) in
  Alcotest.(check bool) "the probe side outnumbers the build side" true
    (n3 > 10 * n_base && n_base > 0);
  Alcotest.(check bool) "the two-instance side builds" true
    (n2 > 0 && n2 < rows q (Expr.base 2));
  Alcotest.(check bool) "the chain emits" true
    (rows q (Expr.join p3 (Expr.base 3)) > 1000);
  List.iter
    (fun (label, exprs) ->
      check_cell ~label:("read through ids: " ^ label) cat q ~budget:1e7 exprs)
    cells;
  (* Different constants: the filtered pair joins to nothing, which then
     builds against a base table on either side. *)
  let q =
    ott_chain_query ~name:"chain-empty" [ 0; 1; 2 ] ~filters:[ (0, 1); (1, 3) ]
  in
  let p2 = left_deep [ 0; 1 ] in
  Alcotest.(check int) "the filtered pair joins to nothing" 0 (rows q p2);
  List.iter
    (fun (label, top) ->
      check_cell ~label:("read through ids: " ^ label) cat q ~budget:1e7
        [ p2; top; Expr.stats (cached top) ])
    [ ("empty build", Expr.join (cached p2) (Expr.base 2));
      ("empty build, right", Expr.join (Expr.base 2) (cached p2)) ];
  (* A Null-bearing (boxed) int column read over Null-free subsets on
     both sides: A.n = 2 keeps no Null, nor does B.f = 2.5. *)
  let q =
    tricky_multi_query ~name:"null-free n both sides" ~joins:[ "n" ]
      ~selects:[ (true, "n", Value.Int 2); (false, "f", Value.Float 2.5) ]
  in
  let full = Expr.join (Expr.base 0) (Expr.base 1) in
  check_cell ~label:"read through ids: null-free n both sides"
    (tricky_fixture ()) q ~budget:1e7
    [ Expr.stats (Expr.base 0); Expr.stats (Expr.base 1); full;
      Expr.stats (cached full) ]

(* No connecting predicate: the cross-product path. *)
let test_cross_product () =
  let cat = tricky_fixture () in
  let b = Query.Builder.create ~name:"cross" in
  let a = Query.Builder.rel b ~table:"A" ~alias:"A" in
  let _ = Query.Builder.rel b ~table:"B" ~alias:"B" in
  let ts = Query.Builder.term b (Udf.identity "s") [ (a, "s") ] in
  Query.Builder.select_pred b ts (Value.Str "ash");
  let q = Query.Builder.build b in
  check_cell ~label:"cross product" cat q ~budget:1e7
    [ Expr.join (Expr.base 0) (Expr.base 1) ]

(* The budget drawn by executing [exprs] in one fresh executor. *)
let produced cat q exprs =
  let exec = E.create cat q (E.budget 1e9) in
  List.iter (fun e -> ignore (E.execute exec e)) exprs;
  E.total_produced exec

(* Budgets at the exact-output boundary of [top], whose inputs [inputs]
   draw what they draw first: those draws plus n - 1 of its n accepted
   tuples (the last overdraws), n (the budget ends at exactly zero) and
   n + 1. *)
let check_boundary ~label cat q ~inputs top =
  let before = produced cat q inputs and total = produced cat q [ top ] in
  Alcotest.(check bool) (label ^ " emits rows") true (total -. before > 10.0);
  List.iter
    (fun d ->
      let budget = total +. d in
      let label = Printf.sprintf "%s @n%+g" label d in
      Alcotest.(check bool) (label ^ " times out iff short") (d < 0.0)
        (times_out (run_new cat q ~budget [ top ]));
      check_cell ~label cat q ~budget [ top ])
    [ -1.0; 0.0; 1.0 ]

let result_count cat q e =
  let exec = E.create cat q (E.budget 1e9) in
  ignore (E.execute exec e);
  Array.length (E.result_rows exec e)

(* Straddling filters: predicates a join evaluates per candidate pair
   because their terms read both sides. uq16's combiner over c and o
   against n, on a plan that joins n before o: the cross product c × n
   has no predicate, and (c × n) ⨝ o joins on o_custkey = c_custkey and
   filters by the combiner. *)
let test_straddling_join () =
  let w =
    Udf_bench.workload
      { Udf_bench.seed = 15; imdb_scale = 0.04; tpch_scale = 0.04 }
  in
  let cat = w.Workload.catalog in
  let q = List.assoc "uq16" w.Workload.queries in
  let cn = Expr.join (Expr.base 1) (Expr.base 2) in
  let top = Expr.join cn (Expr.base 0) in
  Alcotest.(check bool) "the combiner filters candidates" true
    (2 * result_count cat q top
     < result_count cat q (Expr.join (Expr.base 1) (Expr.base 0))
       * result_count cat q (Expr.base 2));
  check_boundary ~label:"straddling uq16 (c×n)⨝o" cat q
    ~inputs:[ cn; Expr.base 0 ] top;
  check_cell ~label:"straddling uq16 steps" cat q ~budget:1e7
    [ Expr.stats cn; top; Expr.stats (Expr.leaf (Expr.mask top)) ]

(* (A.n + B.n) mod 2 = 0 over the tricky fixture's Null-poisoned int
   columns; Null on a Null argument, and [raise_at] raises on that pair
   of values. *)
let parity_sum ?raise_at () =
  Udf.make "parity_sum" (function
    | [| Value.Int a; Value.Int b |] when Some (a, b) = raise_at ->
      invalid_arg "parity_sum: raise_at"
    | [| Value.Int a; Value.Int b |] -> Value.Int ((a + b) mod 2)
    | _ -> Value.Null)

(* A × B whose only predicate is a selection over both instances. *)
let filtered_cross_query udf =
  let b = Query.Builder.create ~name:"filtered-cross" in
  let a = Query.Builder.rel b ~table:"A" ~alias:"A" in
  let c = Query.Builder.rel b ~table:"B" ~alias:"B" in
  Query.Builder.select_pred b
    (Query.Builder.term b udf [ (a, "n"); (c, "n") ])
    (Value.Int 0);
  Query.Builder.build b

let test_filtered_cross () =
  let cat = tricky_fixture () in
  let top = Expr.join (Expr.base 0) (Expr.base 1) in
  let q = filtered_cross_query (parity_sum ()) in
  Alcotest.(check bool) "the selection filters candidates" true
    (2 * result_count cat q top < 60 * 45);
  check_boundary ~label:"filtered cross A×B" cat q
    ~inputs:[ Expr.base 0; Expr.base 1 ] top;
  check_cell ~label:"filtered cross B×A" cat q ~budget:1e7
    [ Expr.join (Expr.base 1) (Expr.base 0) ];
  (* A filter that raises mid-product: the tuples accepted before it are
     emitted and paid for first, so a budget short of them times out. A
     row 4 is the first with n = 4. *)
  let q = filtered_cross_query (parity_sum ~raise_at:(4, 4) ()) in
  let before_raise =
    let exec = E.create cat q (E.budget 1e7) in
    (match E.execute exec top with
    | _ -> Alcotest.fail "the filter should raise"
    | exception Invalid_argument _ -> ());
    E.total_produced exec
  in
  Alcotest.(check bool) "rows accepted before the raise" true
    (before_raise > 10.0);
  List.iter
    (fun budget ->
      let label = Printf.sprintf "filter raises @%g" budget in
      Alcotest.(check bool) (label ^ " times out iff short")
        (budget < before_raise)
        (times_out (run_new cat q ~budget [ top ]));
      check_cell ~label cat q ~budget [ top ])
    [ before_raise -. 1.0; before_raise; before_raise +. 1.0 ]

(* A scan with an identity [col = const] selection and an opaque one on
   the same instance, in both orders: A.s = "ash" and n mod 2 = 0. *)
let test_mixed_scan () =
  let cat = tricky_fixture () in
  let n_even =
    Udf.make "n_even" (function
      | [| Value.Int n |] -> Value.Int (n mod 2)
      | _ -> Value.Null)
  in
  List.iter
    (fun identity_first ->
      let b = Query.Builder.create ~name:"mixed-scan" in
      let a = Query.Builder.rel b ~table:"A" ~alias:"A" in
      let _ = Query.Builder.rel b ~table:"B" ~alias:"B" in
      let ident () =
        Query.Builder.select_pred b
          (Query.Builder.term b (Udf.identity "s") [ (a, "s") ])
          (Value.Str "ash")
      and opaque () =
        Query.Builder.select_pred b
          (Query.Builder.term b n_even [ (a, "n") ])
          (Value.Int 0)
      in
      if identity_first then begin
        ident ();
        opaque ()
      end
      else begin
        opaque ();
        ident ()
      end;
      let q = Query.Builder.build b in
      let label =
        if identity_first then "scan identity then opaque"
        else "scan opaque then identity"
      in
      let kept = produced cat q [ Expr.base 0 ] in
      Alcotest.(check bool) (label ^ " keeps some rows") true
        (kept > 0.0 && kept < 20.0);
      List.iter
        (fun d ->
          check_cell
            ~label:(Printf.sprintf "%s @n%+g" label d)
            cat q ~budget:(kept +. d)
            [ Expr.base 0 ])
        [ -1.0; 0.0; 1.0 ];
      check_cell ~label cat q ~budget:1e7
        [ Expr.stats (Expr.base 0);
          Expr.base 0;
          Expr.join (Expr.base 0) (Expr.base 1) ])
    [ true; false ]

(* Budget exhaustion: both engines must stop at exactly the same emitted
   tuple, leaving identical produced totals and remaining budgets. *)
let test_budget_timeout_parity () =
  let w = Tpch.workload { Tpch.seed = 16; scale = 0.05; skew = Tpch.Plain } in
  List.iter
    (fun budget ->
      List.iteri
        (fun i (name, q) ->
          if i < 3 then
            List.iter
              (fun exprs ->
                check_cell
                  ~label:(Printf.sprintf "timeout %s @%g" name budget)
                  w.Workload.catalog q ~budget exprs)
              (step_sequences q))
        w.Workload.queries)
    [ 50.0; 400.0; 3_000.0 ]

(* The budget a join of two base instances draws: its two scans, and the
   scans plus its n output tuples. *)
let join_draws (w : Workload.t) q join l r =
  let cat = w.Workload.catalog in
  (produced cat q [ Expr.base l; Expr.base r ], produced cat q [ join ])

(* Budget exhaustion inside the two-key (x and y) chained join of OTT:
   the budget covers the scans and half of the join's output. *)
let ott_chained_joins = [ ("oq1", 1, 2); ("oq7", 2, 3) ]

let test_ott_chained_timeout () =
  let w = Ott.workload { Ott.seed = 20; scale = 0.2; domain = 40 } in
  List.iter
    (fun (name, l, r) ->
      let q = List.assoc name w.Workload.queries in
      let join = Expr.join (Expr.base l) (Expr.base r) in
      let scans, total = join_draws w q join l r in
      Alcotest.(check bool) (name ^ " join emits rows") true (total -. scans > 100.0);
      let budget = Float.round (scans +. ((total -. scans) /. 2.0)) in
      let label = Printf.sprintf "ott chained timeout %s @%g" name budget in
      Alcotest.(check bool) (label ^ " times out") true
        (times_out (run_new w.Workload.catalog q ~budget [ join ]));
      check_cell ~label w.Workload.catalog q ~budget [ join ])
    ott_chained_joins

(* The output boundary of a join of two base instances, after their
   scans. The OTT joins repeat build keys; the TPC-H joins build on a
   filtered primary-key side (customer, then orders), so every build key
   is unique. *)
let check_output_boundary (w : Workload.t) cells =
  List.iter
    (fun (name, l, r) ->
      let q = List.assoc name w.Workload.queries in
      check_boundary
        ~label:(Printf.sprintf "boundary %s/%s %d⨝%d" w.Workload.name name l r)
        w.Workload.catalog q
        ~inputs:[ Expr.base l; Expr.base r ]
        (Expr.join (Expr.base l) (Expr.base r)))
    cells

let test_output_boundary () =
  check_output_boundary
    (Ott.workload { Ott.seed = 20; scale = 0.2; domain = 40 })
    ott_chained_joins;
  check_output_boundary
    (Tpch.workload { Tpch.seed = 16; scale = 0.1; skew = Tpch.Plain })
    [ ("tq1", 0, 1); ("tq1", 1, 2) ];
  (* Opaque-UDF keys: uq1's ci ⨝ n on person_ref_id = name_id. *)
  check_output_boundary
    (Udf_bench.workload
       { Udf_bench.seed = 15; imdb_scale = 0.04; tpch_scale = 0.04 })
    [ ("uq1", 1, 2) ]

(* Fault checkpoints: same spec + same seed must fire at the same draw in
   both engines, for every fault class. The TPC-H query's terms are all
   identity projections; uq1 has opaque terms in its scans, join keys and
   Σ passes. A cell marked [fires] must end some step with that fault
   class. *)
let test_fault_parity () =
  let tpch = Tpch.workload { Tpch.seed = 17; scale = 0.05; skew = Tpch.Plain } in
  let udf =
    Udf_bench.workload
      { Udf_bench.seed = 15; imdb_scale = 0.04; tpch_scale = 0.04 }
  in
  List.iter
    (fun ((w : Workload.t), name, spec, seed, fires) ->
      let q = List.assoc name w.Workload.queries in
      let env_of () =
        Env.with_fault Env.default (Fault.plan spec (Rng.create seed))
      in
      List.iter
        (fun exprs ->
          let label =
            Printf.sprintf "fault %s %s" name (Fault.spec_to_string spec)
          in
          Option.iter
            (fun cls ->
              let steps =
                String.split_on_char ';'
                  (run_new ~env:(env_of ()) w.Workload.catalog q ~budget:1e7
                     exprs)
              in
              Alcotest.(check bool) (label ^ " fires") true
                (List.exists
                   (fun st ->
                     String.starts_with ~prefix:("fault:" ^ cls)
                       (String.trim st))
                   steps))
            fires;
          check_cell ~label ~env_new:(env_of ()) ~env_old:(env_of ())
            w.Workload.catalog q ~budget:1e7 exprs)
        (step_sequences q))
    [ (tpch, "tq1", { Fault.no_faults with Fault.row_rate = 1.0 }, 5, Some "row");
      (tpch, "tq1", { Fault.no_faults with Fault.udf_rate = 2e-4 }, 6, None);
      ( tpch, "tq1",
        { Fault.no_faults with Fault.udf_rate = 1e-5; row_rate = 1e-5 }, 7,
        None );
      ( tpch, "tq1", { Fault.no_faults with Fault.build_rate = 0.3 }, 9,
        Some "build" );
      (udf, "uq1", { Fault.no_faults with Fault.udf_rate = 0.1 }, 8, Some "udf");
      (tpch, "tq1", Fault.no_faults, 8, None) ]

let test_deadline_parity () =
  let w = Tpch.workload { Tpch.seed = 18; scale = 0.05; skew = Tpch.Plain } in
  let _, q = List.hd w.Workload.queries in
  let env () = Env.with_deadline Env.default (Deadline.after 0.0) in
  List.iter
    (fun exprs ->
      check_cell ~label:"expired deadline" ~env_new:(env ()) ~env_old:(env ())
        w.Workload.catalog q ~budget:1e7 exprs)
    (step_sequences q)

(* {2 The join kernel's repeats regime, and Σ over repeated row ids}

   An OTT-shaped chain pair: C1 and C2 of 500 rows whose x is drawn from
   0..29 and y = x, joined on both. Every key repeats (about 17 build rows
   a key), so the int kernel takes its repeats regime, and every C1 row
   reappears in about 17 output tuples. Column pk is the row id, so a
   result row names its tuple's row ids. *)
let chain_fixture () =
  let cat = Catalog.create () in
  let schema = Fixtures.int_schema [ "pk"; "x"; "y" ] in
  let rng = Rng.create 23 in
  List.iter
    (fun name ->
      Catalog.add cat
        (Table.of_row_array ~name schema
           (Array.init 500 (fun i ->
                let x = Rng.int rng 30 in
                [| Value.Int i; Value.Int x; Value.Int x |]))))
    [ "C1"; "C2" ];
  cat

(* C1 ⨝ C2 on x and y; [filter] adds the straddling selection
   [filter (C1.pk, C2.pk) = 0]. *)
let chain_pair_query ?filter () =
  let b = Query.Builder.create ~name:"chain-pair" in
  let c1 = Query.Builder.rel b ~table:"C1" ~alias:"C1" in
  let c2 = Query.Builder.rel b ~table:"C2" ~alias:"C2" in
  let at rel col = Query.Builder.term b (Udf.identity col) [ (rel, col) ] in
  Query.Builder.join_pred b (at c1 "x") (at c2 "x");
  Query.Builder.join_pred b (at c1 "y") (at c2 "y");
  Option.iter
    (fun udf ->
      Query.Builder.select_pred b
        (Query.Builder.term b udf [ (c1, "pk"); (c2, "pk") ])
        (Value.Int 0))
    filter;
  Query.Builder.build b

(* The exec.* counters both engines keep. *)
let exec_counters =
  [ "exec.tuples_scanned"; "exec.tuples_built"; "exec.tuples_probed";
    "exec.tuples_emitted"; "exec.sigma_objects"; "exec.budget_spent" ]

(* Every result row's (C1.pk, C2.pk): the output tuples' row ids, in
   emission order. *)
let fp_pk_pairs rows =
  String.concat ","
    (Array.to_list
       (Array.map
          (fun row ->
            Value.to_string row.(0) ^ "/" ^ Value.to_string row.(3))
          rows))

(* One engine's run of [exprs] from a fresh telemetry context: each step's
   output row ids (or "timeout"), then the budget produced, the exec.*
   counters and the remaining budget's bits. *)
let kernel_fp ~steps ~produced ~remaining tel =
  Printf.sprintf "%s | produced=%h counters=[%s] left=%Lx"
    (String.concat " ; " steps)
    produced
    (String.concat ","
       (List.map
          (fun n ->
            Printf.sprintf "%s=%h" n
              (Metric.Counter.value (Ctx.counter tel n)))
          exec_counters))
    (Int64.bits_of_float remaining)

let kernel_run_new cat q ~budget exprs =
  let tel = Ctx.null () in
  let bud = E.budget budget in
  let exec = E.create ~env:(Ctx.to_env tel) cat q bud in
  let steps =
    List.map
      (fun e ->
        match E.execute exec e with
        | _ -> fp_pk_pairs (E.result_rows exec e)
        | exception E.Timeout -> "timeout")
      exprs
  in
  kernel_fp ~steps ~produced:(E.total_produced exec)
    ~remaining:bud.E.remaining tel

let kernel_run_old cat q ~budget exprs =
  let tel = Ctx.null () in
  let bud = R.budget budget in
  let exec = R.create ~env:(Ctx.to_env tel) cat q bud in
  let steps =
    List.map
      (fun e ->
        match R.execute exec e with
        | _ -> fp_pk_pairs (R.result_rows exec e)
        | exception R.Timeout -> "timeout")
      exprs
  in
  kernel_fp ~steps ~produced:(R.total_produced exec)
    ~remaining:bud.R.remaining tel

let check_kernel_cell ~label cat q ~budget exprs =
  Alcotest.(check string)
    (label ^ ": ids, timeout, counters, budget bits")
    (kernel_run_old cat q ~budget exprs)
    (kernel_run_new cat q ~budget exprs);
  check_cell ~label cat q ~budget exprs

(* Budgets around the end of C1 ⨝ C2's output (n - 1, n and n + 1 of its
   n tuples), two that end inside a key group — the tuple that overdraws
   shares its probe row (C2 is the probe side) with the last one paid
   for, whole and with half a unit to spare — and two from 2^53 up,
   where a unit draw rounds: 2^53 + 2 falls to 2^53 and then by one a
   draw, 2^60 never moves. *)
let check_repeats_regime ~label q =
  let cat = chain_fixture () in
  let top = Expr.join (Expr.base 0) (Expr.base 1) in
  let rows =
    let exec = R.create cat q (R.budget 1e9) in
    ignore (R.execute exec top);
    R.result_rows exec top
  in
  let n = Array.length rows in
  Alcotest.(check bool) (label ^ " emits key groups") true (n > 2_000);
  let probe_row k = rows.(k).(3) in
  let rec mid k =
    if k >= n then Alcotest.fail (label ^ ": no group spans two tuples")
    else if Value.equal (probe_row (k - 1)) (probe_row k) then k
    else mid (k + 1)
  in
  let k = float_of_int (mid (n / 2)) and total = float_of_int n in
  List.iter
    (fun budget ->
      let label = Printf.sprintf "%s @%g" label budget in
      Alcotest.(check bool) (label ^ " times out iff short") (budget < total)
        (times_out (run_new cat q ~budget [ top ]));
      check_kernel_cell ~label cat q ~budget [ top ])
    [ total -. 1.0; total; total +. 1.0; k; k +. 0.5; 0x1p53 +. 2.0; 0x1p60 ]

let test_repeats_regime () =
  check_repeats_regime ~label:"repeats C1⨝C2" (chain_pair_query ());
  (* A straddling filter tests each candidate before it counts. *)
  check_repeats_regime ~label:"repeats C1⨝C2 filtered"
    (chain_pair_query
       ~filter:
         (Udf.make "pk_parity" (function
           | [| Value.Int a; Value.Int b |] -> Value.Int ((a + b) land 1)
           | _ -> Value.Null))
       ())

(* Σ over C1 ⨝ C2, a two-instance intermediate whose row ids repeat about
   17 times each: its distinct counts are the row engine's, and for every
   term a sketch fed each distinct row once holds the registers of one fed
   every tuple. *)
let test_sigma_repeated_ids () =
  let cat = chain_fixture () in
  let q = chain_pair_query () in
  let top = Expr.join (Expr.base 0) (Expr.base 1) in
  let cached = Expr.leaf (Expr.mask top) in
  check_kernel_cell ~label:"sigma over repeated ids" cat q ~budget:1e7
    [ Expr.stats top ];
  check_kernel_cell ~label:"sigma over repeated ids, cached" cat q
    ~budget:1e7 [ top; Expr.stats cached ];
  let exec = E.create cat q (E.budget 1e7) in
  ignore (E.execute exec (Expr.stats top));
  let distincts =
    List.concat_map (fun (nd : E.node) -> nd.E.distincts) (E.nodes exec)
  in
  let inter = Option.get (E.materialized exec (Expr.mask top)) in
  let card = Monsoon_exec.Intermediate.cardinality inter in
  let terms = Query.interesting_terms q (Expr.mask top) in
  Alcotest.(check int) "every term measured" (List.length terms)
    (List.length distincts);
  List.iter
    (fun (tm : Term.t) ->
      let rel, col = List.hd tm.Term.args in
      let table = Catalog.find cat (Query.rel_by_id q rel).Query.table in
      let rows = Table.rows table in
      let j = Schema.index_of (Table.schema table) col in
      let ids =
        inter.Monsoon_exec.Intermediate.ids.(Monsoon_exec.Intermediate.position
                                                inter rel)
      in
      let hash id = Value.hash rows.(id).(j) in
      let per_tuple = Monsoon_sketch.Hyperloglog.create ~p:14 () in
      for i = 0 to card - 1 do
        Monsoon_sketch.Hyperloglog.add_hash per_tuple (hash ids.(i))
      done;
      let seen = Array.make (Array.length rows) false in
      let once = Monsoon_sketch.Hyperloglog.create ~p:14 () in
      let n_ids = ref 0 in
      for i = 0 to card - 1 do
        if not seen.(ids.(i)) then begin
          seen.(ids.(i)) <- true;
          incr n_ids;
          Monsoon_sketch.Hyperloglog.add_hash once (hash ids.(i))
        end
      done;
      let label = Printf.sprintf "term %d" tm.Term.id in
      Alcotest.(check bool) (label ^ " ids repeat") true (card > 10 * !n_ids);
      Alcotest.(check bool)
        (label ^ " registers of the distinct rows")
        true
        (Monsoon_sketch.Hyperloglog.equal per_tuple once);
      Alcotest.(check (float 0.0))
        (label ^ " distinct count")
        (Float.max 1.0
           (Float.round (Monsoon_sketch.Hyperloglog.count per_tuple)))
        (List.assoc tm.Term.id distincts))
    terms

let () =
  Alcotest.run "differential"
    [ ( "engine equivalence",
        [ Alcotest.test_case "tpch" `Quick test_tpch;
          Alcotest.test_case "tpch skewed" `Quick test_tpch_skewed;
          Alcotest.test_case "ott" `Quick test_ott;
          Alcotest.test_case "imdb" `Quick test_imdb;
          Alcotest.test_case "udf bench (opaque terms)" `Quick test_udf_bench;
          Alcotest.test_case "tricky values" `Quick test_tricky_values;
          Alcotest.test_case "tricky sigma on join" `Quick test_tricky_sigma_on_join;
          Alcotest.test_case "bushy composites" `Quick test_bushy;
          Alcotest.test_case "read through row ids" `Quick
            test_read_through_ids;
          Alcotest.test_case "cross product" `Quick test_cross_product;
          Alcotest.test_case "straddling join filter" `Quick
            test_straddling_join;
          Alcotest.test_case "filtered cross product" `Quick
            test_filtered_cross;
          Alcotest.test_case "identity and opaque selections" `Quick
            test_mixed_scan ] );
      ( "checkpoints",
        [ Alcotest.test_case "budget timeout" `Quick test_budget_timeout_parity;
          Alcotest.test_case "ott chained timeout" `Quick test_ott_chained_timeout;
          Alcotest.test_case "repeats regime boundary" `Quick
            test_repeats_regime;
          Alcotest.test_case "sigma over repeated row ids" `Quick
            test_sigma_repeated_ids;
          Alcotest.test_case "join output boundary" `Quick test_output_boundary;
          Alcotest.test_case "fault plans" `Quick test_fault_parity;
          Alcotest.test_case "deadlines" `Quick test_deadline_parity ] ) ]
