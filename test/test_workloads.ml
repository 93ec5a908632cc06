open Monsoon_storage
open Monsoon_relalg
open Monsoon_exec
open Monsoon_workloads

(* --- TPC-H generator --- *)

let tpch_cfg scale skew = { Tpch.seed = 7; scale; skew }

let test_tpch_tables () =
  let cat = Tpch.generate (tpch_cfg 0.1 Tpch.Plain) in
  List.iter
    (fun t -> Alcotest.(check bool) (t ^ " exists") true (Catalog.mem cat t))
    [ "region"; "nation"; "supplier"; "part"; "partsupp"; "customer"; "orders"; "lineitem" ];
  let card t = Table.cardinality (Catalog.find cat t) in
  Alcotest.(check int) "region" 5 (card "region");
  Alcotest.(check int) "nation" 25 (card "nation");
  Alcotest.(check bool) "lineitem largest" true
    (card "lineitem" > card "orders" && card "orders" > card "customer")

let top_value_share cat table col =
  let counts = Hashtbl.create 64 in
  Table.iter
    (fun row ->
      let v = row.(Schema.index_of (Table.schema (Catalog.find cat table)) col) in
      Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
    (Catalog.find cat table);
  let total = Table.cardinality (Catalog.find cat table) in
  let top = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  float_of_int top /. float_of_int total

let test_tpch_skew () =
  let plain = Tpch.generate (tpch_cfg 0.2 Tpch.Plain) in
  let high = Tpch.generate (tpch_cfg 0.2 Tpch.High) in
  let share_plain = top_value_share plain "orders" "o_orderpriority" in
  let share_high = top_value_share high "orders" "o_orderpriority" in
  Alcotest.(check bool) "plain roughly uniform" true (share_plain < 0.3);
  Alcotest.(check bool) "z=4 head-heavy" true (share_high > 0.85)

let test_tpch_queries_shape () =
  let qs = Tpch.queries () in
  Alcotest.(check int) "twelve queries" 12 (List.length qs);
  List.iter
    (fun (name, q) ->
      Alcotest.(check bool) (name ^ " has 3+ instances") true (Query.n_rels q >= 3);
      Alcotest.(check bool) (name ^ " has joins") true
        (Array.exists
           (fun p -> match p with Predicate.Join _ -> true | Predicate.Select _ -> false)
           (Query.preds q)))
    qs

let test_tpch_query_executes () =
  let cat = Tpch.generate (tpch_cfg 0.1 Tpch.Plain) in
  let q = List.assoc "tq1" (Tpch.queries ()) in
  let exec = Executor.create cat q (Executor.budget 1e7) in
  (* Join in FK order: small intermediates. *)
  let plan = Expr.join (Expr.join (Expr.base 0) (Expr.base 1)) (Expr.base 2) in
  let _ = Executor.execute exec plan in
  Alcotest.(check bool) "produces rows" true
    (Array.length (Executor.result_rows exec plan) > 0)

(* --- IMDB generator --- *)

let imdb_cfg scale = { Imdb.seed = 11; scale }

let test_imdb_tables () =
  let cat = Imdb.generate (imdb_cfg 0.1) in
  List.iter
    (fun t -> Alcotest.(check bool) (t ^ " exists") true (Catalog.mem cat t))
    [ "title"; "movie_companies"; "company_name"; "cast_info"; "name";
      "movie_info"; "info_type"; "kind_type"; "company_type"; "role_type";
      "keyword"; "movie_keyword" ]

let test_imdb_correlations () =
  let cat = Imdb.generate (imdb_cfg 0.2) in
  (* info_val determines info_type: val / 1000 = type. *)
  let mi = Catalog.find cat "movie_info" in
  let ty_idx = Schema.index_of (Table.schema mi) "info_type_id" in
  let val_idx = Schema.index_of (Table.schema mi) "info_val" in
  Table.iter
    (fun row ->
      let ty = Value.as_int row.(ty_idx) and v = Value.as_int row.(val_idx) in
      if v / 1000 <> ty then
        Alcotest.failf "correlation violated: type %d val %d" ty v)
    mi;
  (* production_year depends on kind: mean years must differ across kinds. *)
  let t = Catalog.find cat "title" in
  let kind_idx = Schema.index_of (Table.schema t) "kind_id" in
  let year_idx = Schema.index_of (Table.schema t) "production_year" in
  let sums = Hashtbl.create 8 in
  Table.iter
    (fun row ->
      let k = Value.as_int row.(kind_idx) and y = Value.as_int row.(year_idx) in
      let s, c = Option.value ~default:(0, 0) (Hashtbl.find_opt sums k) in
      Hashtbl.replace sums k (s + y, c + 1))
    t;
  let means =
    Hashtbl.fold
      (fun _ (s, c) acc -> if c > 30 then (float_of_int s /. float_of_int c) :: acc else acc)
      sums []
  in
  Alcotest.(check bool) "at least two populous kinds" true (List.length means >= 2);
  let mn = List.fold_left min infinity means in
  let mx = List.fold_left max neg_infinity means in
  Alcotest.(check bool) "kind shifts the year distribution" true (mx -. mn > 5.0)

let test_imdb_heavy_tail () =
  let cat = Imdb.generate (imdb_cfg 0.2) in
  Alcotest.(check bool) "popular movies dominate cast_info" true
    (top_value_share cat "cast_info" "movie_id" > 0.01)

let test_imdb_queries () =
  let qs = Imdb.queries () in
  Alcotest.(check int) "sixty queries" 60 (List.length qs);
  List.iter
    (fun (name, q) ->
      Alcotest.(check bool) (name ^ " 3+ instances") true (Query.n_rels q >= 3))
    qs;
  (* Names are unique. *)
  let names = List.map fst qs in
  Alcotest.(check int) "unique names" 60 (List.length (List.sort_uniq compare names))

let test_imdb_ref_strings_parse () =
  let cat = Imdb.generate (imdb_cfg 0.05) in
  let ci = Catalog.find cat "cast_info" in
  let sch = Table.schema ci in
  let mid = Schema.index_of sch "movie_id" in
  let mref = Schema.index_of sch "movie_ref" in
  let pid = Schema.index_of sch "person_id" in
  let pref = Schema.index_of sch "person_ref" in
  Table.iter
    (fun row ->
      Alcotest.(check bool) "movie_ref encodes movie_id" true
        (Value.equal
           (Udf.apply Udf_library.movie_ref_id [| row.(mref) |])
           row.(mid));
      Alcotest.(check bool) "person_ref encodes person_id" true
        (Value.equal
           (Udf.apply Udf_library.person_ref_id [| row.(pref) |])
           row.(pid)))
    ci

(* --- OTT --- *)

let ott_cfg scale = { Ott.seed = 13; scale; domain = 50 }

let test_ott_correlation () =
  let cat = Ott.generate (ott_cfg 0.1) in
  let t = Catalog.find cat "ott1" in
  let sch = Table.schema t in
  let x = Schema.index_of sch "x" and y = Schema.index_of sch "y" in
  Table.iter
    (fun row ->
      Alcotest.(check bool) "y = x" true (Value.equal row.(x) row.(y)))
    t

let test_ott_queries_empty_and_cheap () =
  let cfg = ott_cfg 0.1 in
  let cat = Ott.generate cfg in
  let qs = Ott.queries cfg in
  Alcotest.(check int) "twenty queries" 20 (List.length qs);
  List.iter
    (fun (name, q) ->
      let plan = Ott.hand_written name q in
      let exec = Executor.create cat q (Executor.budget 1e7) in
      let cost = Executor.execute exec plan in
      let rows = Executor.result_rows exec plan in
      Alcotest.(check int) (name ^ " empty result") 0 (Array.length rows);
      (* The expert plan stays comparatively cheap. When the two filters sit
         at opposite ends of a long chain even the best left-deep plan
         accumulates some intermediates before the chain closes, so the
         bound is loose; wrong plans run into the tens of millions. *)
      Alcotest.(check bool) (name ^ " cheap expert plan") true (cost < 500_000.0))
    qs

let test_ott_double_preds () =
  let cfg = ott_cfg 0.1 in
  let qs = Ott.queries cfg in
  let _, q = List.hd qs in
  (* Consecutive chain instances share TWO join predicates (x and y). *)
  let conn = Query.connecting q (Relset.singleton 0) (Relset.singleton 1) in
  Alcotest.(check int) "two predicates" 2 (List.length conn)

(* --- UDF benchmark --- *)

let udf_cfg = { Udf_bench.seed = 17; imdb_scale = 0.05; tpch_scale = 0.05 }

let test_udf_parsers () =
  let open Udf_library in
  let check udf s expect =
    Alcotest.(check bool) (Udf.name udf ^ " on " ^ s) true
      (Value.equal (Udf.apply udf [| Value.Str s |]) expect)
  in
  check title_id "id=123;y=1950" (Value.Int 123);
  check title_year "id=123;y=1950" (Value.Int 1950);
  check movie_ref_id "m:42" (Value.Int 42);
  check person_ref_id "ref(p99)" (Value.Int 99);
  check name_id "p:7;g=2" (Value.Int 7);
  check name_gender "p:7;g=2" (Value.Int 2);
  check company_country "Co#5 (07)" (Value.Int 7);
  check title_id "garbage" Value.Null

let test_combine_mod () =
  let u = Udf_library.combine_mod ~name:"c" ~modulus:25 in
  let v = Udf.apply u [| Value.Int 3; Value.Int 4 |] in
  Alcotest.(check bool) "in range" true
    (match v with Value.Int i -> i >= 1 && i <= 25 | _ -> false);
  Alcotest.(check bool) "deterministic" true
    (Value.equal v (Udf.apply u [| Value.Int 3; Value.Int 4 |]))

let test_udf_bench_queries () =
  let cat = Udf_bench.generate udf_cfg in
  let qs = Udf_bench.queries udf_cfg cat in
  Alcotest.(check int) "twenty-five queries" 25 (List.length qs);
  (* The 10 TPC-H queries all have a multi-instance term. *)
  let multi =
    List.filter
      (fun (_, q) -> Monsoon_baselines.Stats_source.has_multi_instance_terms q)
      qs
  in
  Alcotest.(check int) "ten multi-instance queries" 10 (List.length multi)

let test_udf_string_join_matches_int_join () =
  (* Joining t with ci through the parsing UDFs must give the same result
     as the plain integer FK join. *)
  let cat = Udf_bench.generate udf_cfg in
  let via_strings =
    let b = Query.Builder.create ~name:"str" in
    let t = Query.Builder.rel b ~table:"title" ~alias:"t" in
    let ci = Query.Builder.rel b ~table:"cast_info" ~alias:"ci" in
    Query.Builder.join_pred b
      (Query.Builder.term b Udf_library.title_id [ (t, "id_str") ])
      (Query.Builder.term b Udf_library.movie_ref_id [ (ci, "movie_ref") ]);
    Query.Builder.build b
  in
  let via_ints =
    let b = Query.Builder.create ~name:"int" in
    let t = Query.Builder.rel b ~table:"title" ~alias:"t" in
    let ci = Query.Builder.rel b ~table:"cast_info" ~alias:"ci" in
    Query.Builder.join_pred b
      (Query.Builder.term b (Udf.identity "id") [ (t, "id") ])
      (Query.Builder.term b (Udf.identity "movie_id") [ (ci, "movie_id") ]);
    Query.Builder.build b
  in
  let run q =
    let exec = Executor.create cat q (Executor.budget 1e7) in
    let plan = Expr.join (Expr.base 0) (Expr.base 1) in
    let _ = Executor.execute exec plan in
    Array.length (Executor.result_rows exec plan)
  in
  Alcotest.(check int) "same join result" (run via_ints) (run via_strings)

let test_udf_multi_table_query_runs () =
  let cat = Udf_bench.generate udf_cfg in
  let qs = Udf_bench.queries udf_cfg cat in
  let q = List.assoc "uq16" qs in
  (* o x c first (FK), then the combiner-keyed join with nation. *)
  let plan = Expr.join (Expr.join (Expr.base 0) (Expr.base 1)) (Expr.base 2) in
  let exec = Executor.create cat q (Executor.budget 1e8) in
  let _ = Executor.execute exec plan in
  Alcotest.(check bool) "produces rows" true
    (Array.length (Executor.result_rows exec plan) > 0)

let test_workload_wrappers () =
  let w = Tpch.workload (tpch_cfg 0.05 Tpch.Low) in
  Alcotest.(check string) "skew name" "Low" w.Workload.name;
  Alcotest.(check bool) "find_query" true
    (Query.n_rels (Workload.find_query w "tq3") = 6)

let () =
  Alcotest.run "workloads"
    [ ( "tpch",
        [ Alcotest.test_case "tables" `Quick test_tpch_tables;
          Alcotest.test_case "skew" `Quick test_tpch_skew;
          Alcotest.test_case "query shapes" `Quick test_tpch_queries_shape;
          Alcotest.test_case "query executes" `Quick test_tpch_query_executes ] );
      ( "imdb",
        [ Alcotest.test_case "tables" `Quick test_imdb_tables;
          Alcotest.test_case "correlations" `Quick test_imdb_correlations;
          Alcotest.test_case "heavy tail" `Quick test_imdb_heavy_tail;
          Alcotest.test_case "queries" `Quick test_imdb_queries;
          Alcotest.test_case "ref strings parse" `Quick test_imdb_ref_strings_parse ] );
      ( "ott",
        [ Alcotest.test_case "correlation" `Quick test_ott_correlation;
          Alcotest.test_case "queries empty and cheap" `Quick test_ott_queries_empty_and_cheap;
          Alcotest.test_case "double predicates" `Quick test_ott_double_preds ] );
      ( "udf bench",
        [ Alcotest.test_case "parsers" `Quick test_udf_parsers;
          Alcotest.test_case "combine_mod" `Quick test_combine_mod;
          Alcotest.test_case "query suite" `Quick test_udf_bench_queries;
          Alcotest.test_case "string join == int join" `Quick test_udf_string_join_matches_int_join;
          Alcotest.test_case "multi-table query runs" `Quick test_udf_multi_table_query_runs ] );
      ( "workload",
        [ Alcotest.test_case "wrappers" `Quick test_workload_wrappers ] ) ]
