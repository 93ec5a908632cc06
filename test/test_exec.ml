open Monsoon_util
open Monsoon_storage
open Monsoon_relalg
open Monsoon_exec

(* A small two-table join fixture with known contents. *)
let two_table_query ?(select_const = None) () =
  let b = Query.Builder.create ~name:"two" in
  let r = Query.Builder.rel b ~table:"R" ~alias:"R" in
  let s = Query.Builder.rel b ~table:"S" ~alias:"S" in
  let fr = Query.Builder.term b (Udf.identity "k") [ (r, "k") ] in
  let fs = Query.Builder.term b (Udf.identity "k") [ (s, "k") ] in
  Query.Builder.join_pred b fr fs;
  (match select_const with
  | Some v ->
    let fv = Query.Builder.term b (Udf.identity "v") [ (r, "v") ] in
    Query.Builder.select_pred b fv (Value.Int v)
  | None -> ());
  Query.Builder.build b

let two_table_catalog rng ~n_r ~n_s ~d =
  let cat = Catalog.create () in
  Catalog.add cat
    (Fixtures.make_table rng ~name:"R" ~cols:[ ("k", d); ("v", 3) ] n_r);
  Catalog.add cat (Fixtures.make_table rng ~name:"S" ~cols:[ ("k", d) ] n_s);
  cat

let full_join _q = Expr.join (Expr.base 0) (Expr.base 1)

(* Views of the latest call's node records: true counts by mask, Σ
   distincts, and the Σ share of the cost. *)
let observed_counts exec =
  List.filter_map
    (fun (n : Executor.node) ->
      match n.Executor.expr with
      | Expr.Stats _ -> None
      | e -> Some (Expr.mask e, n.Executor.rows))
    (Executor.nodes exec)

let observed_distincts exec =
  List.concat_map (fun (n : Executor.node) -> n.Executor.distincts)
    (Executor.nodes exec)

let sigma_cost exec =
  List.fold_left
    (fun acc (n : Executor.node) ->
      match n.Executor.expr with
      | Expr.Stats _ -> acc +. n.Executor.rows
      | _ -> acc)
    0.0 (Executor.nodes exec)

(* The profile of the two-instance join the latest call ran. *)
let join_profile exec =
  Option.get
    (List.find
       (fun (n : Executor.node) ->
         Relset.cardinal (Expr.mask n.Executor.expr) = 2)
       (Executor.nodes exec))
      .Executor.profile

let test_join_matches_brute_force () =
  let rng = Rng.create 31 in
  let q = two_table_query () in
  let cat = two_table_catalog rng ~n_r:200 ~n_s:150 ~d:20 in
  let exec = Executor.create cat q (Executor.budget 1e6) in
  let _cost = Executor.execute exec (full_join q) in
  let rows = Executor.result_rows exec (full_join q) in
  Alcotest.(check int) "same cardinality as brute force"
    (Fixtures.brute_force_count cat q)
    (Array.length rows)

let test_join_root_not_charged () =
  (* A complete 2-way query consists only of its (free) root join. *)
  let rng = Rng.create 32 in
  let q = two_table_query () in
  let cat = two_table_catalog rng ~n_r:100 ~n_s:100 ~d:10 in
  let exec = Executor.create cat q (Executor.budget 1e6) in
  let cost = Executor.execute exec (full_join q) in
  Alcotest.(check (float 0.0)) "zero cost" 0.0 cost

let test_scan_filter_applied () =
  let rng = Rng.create 33 in
  let q = two_table_query ~select_const:(Some 1) () in
  let cat = two_table_catalog rng ~n_r:300 ~n_s:100 ~d:10 in
  let exec = Executor.create cat q (Executor.budget 1e6) in
  let _ = Executor.execute exec (full_join q) in
  (* All result rows must satisfy the filter. *)
  let rows = Executor.result_rows exec (full_join q) in
  let v_idx =
    Intermediate.col_index q cat
      (Option.get (Executor.materialized exec (Query.all_mask q)))
      ~rel:0 ~col:"v"
  in
  Array.iter
    (fun row -> Alcotest.(check int) "filtered" 1 (Value.as_int row.(v_idx)))
    rows;
  Alcotest.(check int) "matches brute force" (Fixtures.brute_force_count cat q)
    (Array.length rows)

let test_budget_timeout () =
  let rng = Rng.create 34 in
  let q = two_table_query () in
  (* d = 1: the join is a full cross product of matches; 500 * 500 rows. *)
  let cat = two_table_catalog rng ~n_r:500 ~n_s:500 ~d:1 in
  let exec = Executor.create cat q (Executor.budget 1000.0) in
  Alcotest.check_raises "timeout" Executor.Timeout (fun () ->
      ignore (Executor.execute exec (full_join q)))

let test_intermediate_cache_reused () =
  let rng = Rng.create 35 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:1000 ~d_s:1 ~d_t:10 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let rs = Expr.join (Expr.base 0) (Expr.base 1) in
  let c1 = Executor.execute exec rs in
  Alcotest.(check bool) "first run charged" true (c1 > 0.0);
  let c2 = Executor.execute exec rs in
  Alcotest.(check (float 0.0)) "cached rerun free" 0.0 c2;
  (* A plan reusing the cached intermediate as a leaf only pays the top. *)
  let top = Expr.join (Expr.leaf (Relset.of_list [ 0; 1 ])) (Expr.base 2) in
  let c3 = Executor.execute exec top in
  Alcotest.(check (float 0.0)) "root of full query free" 0.0 c3

let test_sec23_three_way_ground_truth () =
  let rng = Rng.create 36 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:2000 ~d_s:1 ~d_t:5 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let plan = Expr.join (Expr.join (Expr.base 0) (Expr.base 1)) (Expr.base 2) in
  let _ = Executor.execute exec plan in
  Alcotest.(check int) "matches brute force"
    (Fixtures.brute_force_count cat q)
    (Array.length (Executor.result_rows exec plan))

let test_observed_counts () =
  let rng = Rng.create 37 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:2000 ~d_s:1 ~d_t:5 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let inner = Expr.join (Expr.base 0) (Expr.base 1) in
  let plan = Expr.join inner (Expr.base 2) in
  let cost = Executor.execute exec plan in
  (* Observations cover the two join masks (plus any filtered scans). *)
  let c_of m = List.assoc_opt m (observed_counts exec) in
  let inner_card =
    float_of_int
      (Intermediate.cardinality (Option.get (Executor.materialized exec (Expr.mask inner))))
  in
  Alcotest.(check (option (float 0.0))) "inner count observed" (Some inner_card)
    (c_of (Expr.mask inner));
  Alcotest.(check bool) "full count observed" true (c_of (Query.all_mask q) <> None);
  Alcotest.(check (float 0.0)) "cost = inner cardinality" inner_card cost

let test_sigma_measures_distincts () =
  let rng = Rng.create 38 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:1000 ~d_s:7 ~d_t:4 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let cost = Executor.execute exec (Expr.stats (Expr.base 1)) in
  (* Σ(S) measures d(F2, S): term id 1. *)
  (match List.assoc_opt 1 (observed_distincts exec) with
  | Some d ->
    let truth = float_of_int (Table.distinct_exact (Catalog.find cat "S") "b") in
    Alcotest.(check bool) "HLL close to exact" true
      (abs_float (d -. truth) /. truth < 0.05)
  | None -> Alcotest.fail "no distinct measured for F2");
  (* Cost of Σ over a base table: one pass over its rows. *)
  let c_s = float_of_int (Table.cardinality (Catalog.find cat "S")) in
  Alcotest.(check (float 0.0)) "one pass" c_s cost;
  Alcotest.(check (float 0.0)) "all of it is stats cost" c_s (sigma_cost exec)

let test_sigma_on_intermediate () =
  let rng = Rng.create 39 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:2000 ~d_s:3 ~d_t:5 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let inner = Expr.join (Expr.base 0) (Expr.base 1) in
  let cost = Executor.execute exec (Expr.stats inner) in
  let inner_card =
    float_of_int
      (Intermediate.cardinality (Option.get (Executor.materialized exec (Expr.mask inner))))
  in
  (* Materialize (charged) + extra Σ pass. *)
  Alcotest.(check (float 0.0)) "2x inner" (2.0 *. inner_card) cost;
  (* Terms F1, F2, F3 are all evaluable on R⨝S. *)
  let ids = List.sort compare (List.map fst (observed_distincts exec)) in
  Alcotest.(check (list int)) "terms measured" [ 0; 1; 2 ] ids

let test_cross_product_when_unconnected () =
  (* S and T have no connecting predicate: joining them is a cross
     product. *)
  let rng = Rng.create 40 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:2000 ~d_s:2 ~d_t:2 in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let st = Expr.join (Expr.base 1) (Expr.base 2) in
  let cost = Executor.execute exec st in
  let c_s = float_of_int (Table.cardinality (Catalog.find cat "S")) in
  let c_t = float_of_int (Table.cardinality (Catalog.find cat "T")) in
  Alcotest.(check (float 0.0)) "|S|*|T|" (c_s *. c_t) cost

(* The gather rule: a column read in place through row ids is labelled
   with the representation Column.of_values gives the values read, and
   reads that gathered column's values and hashes. *)
let repr_label = function
  | Column.Ints _ -> "ints"
  | Column.Floats _ -> "floats"
  | Column.Dict _ -> "dict"
  | Column.Boxed _ -> "boxed"

(* The profile label of [col] read at the first [n] of [ids]. *)
let read_label ty col ids ~n =
  let p = Profile.create () in
  Profile.reset p;
  Profile.add_repr_read p ty col
    (Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout ids)
    ~n;
  (Option.get
     (Profile.finish p ~default_kind:Profile.Scan ~rows_out:0.0 ~budget:0.0
        ~complete:true ~seconds:0.0))
    .Monsoon_telemetry.Recorder.p_repr

let check_gather ~label ty values ids =
  (* Only the first [n] ids count: the trailing 3 (a Null in the
     Null-bearing inputs) must not leak into the label. *)
  let col = Column.of_values ty values in
  let n = Array.length ids in
  let want = Column.of_values ty (Array.map (fun i -> values.(i)) ids) in
  Alcotest.(check string) (label ^ ": representation") (repr_label want)
    (read_label ty col (Array.append ids [| 3 |]) ~n);
  Array.iteri
    (fun i id ->
      Alcotest.(check bool) (label ^ ": value") true
        (Value.equal (Column.get want i) (Column.get col id));
      Alcotest.(check int64) (label ^ ": hash") (Column.value_hash want i)
        (Column.value_hash col id))
    ids

let test_gather_keeps_representation () =
  let ints = Array.init 12 (fun i -> Value.Int (i mod 5)) in
  let with_null = Array.mapi (fun i v -> if i = 3 then Value.Null else v) ints in
  let mixed = Array.mapi (fun i v -> if i = 7 then Value.Str "x" else v) ints in
  let floats =
    Array.init 12 (fun i ->
        Value.Float [| 1.5; Float.nan; -0.0; 0.0 |].(i mod 4))
  in
  let strs = Array.init 12 (fun i -> Value.Str [| "c"; "a"; "b" |].(i mod 3)) in
  let strs_null = Array.mapi (fun i v -> if i = 0 then Value.Null else v) strs in
  let dates = Array.init 12 (fun i -> Value.Date (100 + i)) in
  let bools = Array.init 12 (fun i -> Value.Bool (i mod 3 = 0)) in
  let all = Array.init 12 Fun.id in
  let null_free = [| 11; 0; 5; 2; 5 |] in
  List.iter
    (fun (label, ty, values) ->
      List.iter
        (fun (which, ids) -> check_gather ~label:(label ^ which) ty values ids)
        [ (" all", all); (" reordered subset", null_free);
          (" with index 3", [| 3; 7; 3 |]); (" empty", [||]) ])
    [ ("ints", Value.TInt, ints);
      ("ints with a Null", Value.TInt, with_null);
      ("ints with a string", Value.TInt, mixed);
      ("floats", Value.TFloat, floats);
      ("strings", Value.TStr, strs);
      ("strings with a Null", Value.TStr, strs_null);
      ("dates", Value.TDate, dates);
      ("bools", Value.TBool, bools) ];
  (* The case the profile depends on: a Null-bearing (Boxed) base column
     read over a Null-free subset is labelled ints. *)
  Alcotest.(check string) "null-free subset of a boxed column" "ints"
    (read_label Value.TInt
       (Column.of_values Value.TInt with_null)
       null_free ~n:(Array.length null_free))

(* The same rule seen from the executor: scan filters that drop every
   Null from Null-bearing join columns (R.k = 2 directly, S.v = 1 because
   S.k is Null exactly where S.v = 0) leave keys the profile labels ints,
   and the join takes the fused int path (the boxed base columns' values
   are interned into int codes). *)
let test_null_free_scan_joins_fused () =
  let cat = Catalog.create () in
  let schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.TInt };
        { Schema.name = "v"; ty = Value.TInt } ]
  in
  let mk name n =
    Table.of_row_array ~name schema
      (Array.init n (fun i ->
           [| (if i mod 3 = 0 then Value.Null else Value.Int (i mod 7));
              Value.Int (i mod 3) |]))
  in
  Catalog.add cat (mk "R" 40);
  Catalog.add cat (mk "S" 30);
  let b = Query.Builder.create ~name:"nulls" in
  let r = Query.Builder.rel b ~table:"R" ~alias:"R" in
  let s = Query.Builder.rel b ~table:"S" ~alias:"S" in
  let term rel col = Query.Builder.term b (Udf.identity col) [ (rel, col) ] in
  Query.Builder.join_pred b (term r "k") (term s "k");
  Query.Builder.select_pred b (term r "k") (Value.Int 2);
  Query.Builder.select_pred b (term s "v") (Value.Int 1);
  let q = Query.Builder.build b in
  let prof = Profile.create () in
  let exec = Executor.create ~profile:prof cat q (Executor.budget 1e6) in
  ignore (Executor.execute exec (full_join q));
  let join = join_profile exec in
  Alcotest.(check string) "fused int join" "join_ints"
    join.Monsoon_telemetry.Recorder.p_path;
  Alcotest.(check string) "key representations" "ints,ints"
    join.Monsoon_telemetry.Recorder.p_repr

(* A join on two int keys (R.k = S.k and R.v = S.v, build keys repeated)
   takes the fused int kernel, reported as [join_ints] and counted in
   [exec.fused_ops], and matches a nested-loop count. *)
let test_two_int_keys_join_fused () =
  let cat = Catalog.create () in
  let schema =
    Schema.make
      [ { Schema.name = "k"; ty = Value.TInt };
        { Schema.name = "v"; ty = Value.TInt } ]
  in
  let mk name n =
    Table.of_row_array ~name schema
      (Array.init n (fun i -> [| Value.Int (i mod 7); Value.Int (i mod 3) |]))
  in
  Catalog.add cat (mk "R" 50);
  Catalog.add cat (mk "S" 40);
  let b = Query.Builder.create ~name:"two-keys" in
  let r = Query.Builder.rel b ~table:"R" ~alias:"R" in
  let s = Query.Builder.rel b ~table:"S" ~alias:"S" in
  let term rel col = Query.Builder.term b (Udf.identity col) [ (rel, col) ] in
  Query.Builder.join_pred b (term r "k") (term s "k");
  Query.Builder.join_pred b (term r "v") (term s "v");
  let q = Query.Builder.build b in
  let tel = Monsoon_telemetry.Ctx.null () in
  let count name =
    int_of_float
      (Monsoon_telemetry.Metric.Counter.value
         (Monsoon_telemetry.Ctx.counter tel name))
  in
  let prof = Profile.create () in
  let exec =
    Executor.create ~profile:prof ~env:(Monsoon_telemetry.Ctx.to_env tel) cat q
      (Executor.budget 1e6)
  in
  ignore (Executor.execute exec (full_join q));
  let join = join_profile exec in
  Alcotest.(check string) "two-key int join path" "join_ints"
    join.Monsoon_telemetry.Recorder.p_path;
  Alcotest.(check int) "fused ops" 1 (count "exec.fused_ops");
  Alcotest.(check int) "scalar fallbacks" 0 (count "exec.scalar_fallbacks");
  Alcotest.(check int) "rows" (Fixtures.brute_force_count cat q)
    (Array.length (Executor.result_rows exec (full_join q)))

(* Routing: a join on opaque-UDF keys evaluates them into columns and
   runs the int kernel, armed fault plan or not (its checkpoints are drawn
   at the operator's entry); so does a join with a straddling filter,
   which the kernel tests per candidate pair. *)
let test_udf_keys_join_routing () =
  let rng = Rng.create 37 in
  let cat = two_table_catalog rng ~n_r:120 ~n_s:90 ~d:15 in
  let opaque = Udf.make "k_opaque" (fun args -> args.(0)) in
  let query ~straddling =
    let b = Query.Builder.create ~name:"udf-keys" in
    let r = Query.Builder.rel b ~table:"R" ~alias:"R" in
    let s = Query.Builder.rel b ~table:"S" ~alias:"S" in
    Query.Builder.join_pred b
      (Query.Builder.term b opaque [ (r, "k") ])
      (Query.Builder.term b opaque [ (s, "k") ]);
    if straddling then
      Query.Builder.select_pred b
        (Query.Builder.term b
           (Udf.make "v_plus_k" (function
             | [| Value.Int v; Value.Int k |] -> Value.Int ((v + k) mod 2)
             | _ -> Value.Null))
           [ (r, "v"); (s, "k") ])
        (Value.Int 0);
    Query.Builder.build b
  in
  let run ?fault q =
    let tel = Monsoon_telemetry.Ctx.null () in
    let env = Monsoon_telemetry.Ctx.to_env tel in
    let env =
      match fault with Some f -> Env.with_fault env f | None -> env
    in
    let prof = Profile.create () in
    let exec = Executor.create ~profile:prof ~env cat q (Executor.budget 1e6) in
    ignore (Executor.execute exec (full_join q));
    let join = join_profile exec in
    let count name =
      int_of_float
        (Monsoon_telemetry.Metric.Counter.value
           (Monsoon_telemetry.Ctx.counter tel name))
    in
    ( join.Monsoon_telemetry.Recorder.p_path,
      count "exec.fused_ops",
      count "exec.scalar_fallbacks",
      Array.length (Executor.result_rows exec (full_join q)) )
  in
  let q = query ~straddling:false in
  let path, fused, scalar, rows = run q in
  Alcotest.(check string) "udf keys path" "join_ints" path;
  Alcotest.(check int) "udf keys fused ops" 1 fused;
  Alcotest.(check int) "udf keys scalar fallbacks" 0 scalar;
  Alcotest.(check int) "udf keys rows" (Fixtures.brute_force_count cat q) rows;
  (* Armed, at a rate that never fires. *)
  let armed =
    Fault.plan { Fault.no_faults with Fault.build_rate = 1e-12 } (Rng.create 5)
  in
  let path, fused, scalar, armed_rows = run ~fault:armed q in
  Alcotest.(check string) "armed fault plan path" "join_ints" path;
  Alcotest.(check int) "armed fault plan fused ops" 1 fused;
  Alcotest.(check int) "armed fault plan scalar fallbacks" 0 scalar;
  Alcotest.(check int) "armed fault plan rows" rows armed_rows;
  let q = query ~straddling:true in
  let path, fused, scalar, rows = run q in
  Alcotest.(check string) "straddling filter path" "join_ints" path;
  Alcotest.(check int) "straddling filter fused ops" 1 fused;
  Alcotest.(check int) "straddling filter scalar fallbacks" 0 scalar;
  Alcotest.(check int) "straddling filter rows"
    (Fixtures.brute_force_count cat q) rows

(* Property: hash join result always equals the nested-loop oracle. *)
let prop_join_equals_oracle =
  QCheck.Test.make ~name:"hash join == nested loop oracle" ~count:30
    QCheck.(triple (int_range 10 120) (int_range 10 120) (int_range 1 30))
    (fun (n_r, n_s, d) ->
      let rng = Rng.create (n_r + (n_s * 131) + d) in
      let q = two_table_query () in
      let cat = two_table_catalog rng ~n_r ~n_s ~d in
      let exec = Executor.create cat q (Executor.budget 1e7) in
      let _ = Executor.execute exec (full_join q) in
      Array.length (Executor.result_rows exec (full_join q))
      = Fixtures.brute_force_count cat q)

(* Property: three-way plans of either shape produce identical result
   cardinalities. *)
let prop_plan_shape_irrelevant =
  QCheck.Test.make ~name:"plan shape does not change the result" ~count:15
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (d_s, d_t) ->
      let rng = Rng.create ((d_s * 17) + d_t) in
      let q = Fixtures.sec23_query () in
      let cat = Fixtures.sec23_catalog rng ~scale:4000 ~d_s ~d_t in
      let plan1 = Expr.join (Expr.join (Expr.base 0) (Expr.base 1)) (Expr.base 2) in
      let plan2 = Expr.join (Expr.join (Expr.base 0) (Expr.base 2)) (Expr.base 1) in
      let run plan =
        let exec = Executor.create cat q (Executor.budget 1e8) in
        let _ = Executor.execute exec plan in
        Array.length (Executor.result_rows exec plan)
      in
      run plan1 = run plan2)

(* A scan's selections observe each term over the rows it evaluated:
   [s = 0] keeps 25 of 100 rows, and the opaque parity test after it sees
   those 25 and keeps them all — (25, 1.0), not the conjunction's
   (100, 0.25). *)
let test_scan_observes_each_term () =
  let cat = Catalog.create () in
  Catalog.add cat
    (Table.of_row_array ~name:"T"
       (Fixtures.int_schema [ "s"; "v" ])
       (Array.init 100 (fun i -> [| Value.Int (i mod 4); Value.Int i |])));
  let b = Query.Builder.create ~name:"per-term" in
  let t = Query.Builder.rel b ~table:"T" ~alias:"T" in
  let s_eq = Query.Builder.term b (Udf.identity "s") [ (t, "s") ] in
  let parity =
    Query.Builder.term b
      (Udf.make "parity" (function
        | [| Value.Int v |] -> Value.Int (v mod 2)
        | _ -> Value.Null))
      [ (t, "v") ]
  in
  Query.Builder.select_pred b s_eq (Value.Int 0);
  Query.Builder.select_pred b parity (Value.Int 0);
  let q = Query.Builder.build b in
  let exec = Executor.create cat q (Executor.budget 1e6) in
  ignore (Executor.execute exec (Expr.base 0));
  let observed =
    List.concat_map (fun (n : Executor.node) -> n.Executor.udf)
      (Executor.nodes exec)
  in
  Alcotest.(check (list (triple int (float 0.0) (float 0.0))))
    "each term's rows in and kept fraction, in predicate order"
    [ (s_eq.Term.id, 100.0, 0.25); (parity.Term.id, 25.0, 1.0) ]
    observed

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "exec"
    [ ( "executor",
        [ Alcotest.test_case "join vs brute force" `Quick test_join_matches_brute_force;
          Alcotest.test_case "root not charged" `Quick test_join_root_not_charged;
          Alcotest.test_case "scan filter" `Quick test_scan_filter_applied;
          Alcotest.test_case "budget timeout" `Quick test_budget_timeout;
          Alcotest.test_case "cache reuse" `Quick test_intermediate_cache_reused;
          Alcotest.test_case "3-way ground truth" `Quick test_sec23_three_way_ground_truth;
          Alcotest.test_case "observed counts" `Quick test_observed_counts;
          Alcotest.test_case "sigma distincts" `Quick test_sigma_measures_distincts;
          Alcotest.test_case "sigma on intermediate" `Quick test_sigma_on_intermediate;
          Alcotest.test_case "cross product" `Quick test_cross_product_when_unconnected;
          Alcotest.test_case "gather keeps representation" `Quick
            test_gather_keeps_representation;
          Alcotest.test_case "null-free scan joins fused" `Quick
            test_null_free_scan_joins_fused;
          Alcotest.test_case "two int keys join fused" `Quick
            test_two_int_keys_join_fused;
          Alcotest.test_case "udf keys join routing" `Quick
            test_udf_keys_join_routing;
          Alcotest.test_case "scan observes each term" `Quick
            test_scan_observes_each_term ] );
      ("properties", qc [ prop_join_equals_oracle; prop_plan_shape_irrelevant ]) ]
