open Monsoon_baselines
open Monsoon_workloads
open Monsoon_harness

(* --- Report rendering --- *)

let contains s needle =
  let rec search i =
    i + String.length needle <= String.length s
    && (String.sub s i (String.length needle) = needle || search (i + 1))
  in
  search 0

let test_table_render () =
  let s =
    Report.table ~title:"T" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [ "T"; "a"; "bb"; "333"; "4" ]

let test_cost_format () =
  Alcotest.(check string) "giga" "1.50G" (Report.cost 1.5e9);
  Alcotest.(check string) "mega" "2.30M" (Report.cost 2.3e6);
  Alcotest.(check string) "kilo" "34.5k" (Report.cost 34_500.0);
  Alcotest.(check string) "small" "812" (Report.cost 812.0);
  Alcotest.(check string) "na" "N/A" (Report.opt_cost None)

let test_seconds_format () =
  Alcotest.(check string) "seconds" "2.50s" (Report.seconds 2.5);
  Alcotest.(check string) "millis" "150ms" (Report.seconds 0.15)

let test_series_render () =
  let s = Report.series ~title:"T" ~x_label:"x" ~y_label:"y" [ ("a", 10.0); ("b", 5.0) ] in
  Alcotest.(check bool) "contains bars" true (String.contains s '#')

(* --- Runner aggregation --- *)

let outcome ?(timed_out = false) cost =
  { Strategy.cost; timed_out; wall = 0.0; plan_time = 0.0; stats_cost = 0.0;
    result_card = 0.0; degraded = 0; plan = "" }

let row name cells =
  { Runner.strategy = name;
    cells =
      List.mapi
        (fun i o ->
          { Runner.query = Printf.sprintf "q%d" i; outcome = o; error = None;
            attempts = (match o with Some _ -> 1 | None -> 0) })
        cells }

let test_aggregate_no_timeouts () =
  let r = row "x" [ Some (outcome 10.0); Some (outcome 20.0); Some (outcome 60.0) ] in
  let a = Runner.aggregate ~budget:100.0 r in
  Alcotest.(check int) "timeouts" 0 a.Runner.timeouts;
  Alcotest.(check (option (float 0.01))) "mean" (Some 30.0) a.Runner.mean;
  Alcotest.(check (float 0.01)) "median" 20.0 a.Runner.median;
  Alcotest.(check (option (float 0.01))) "max" (Some 60.0) a.Runner.max_;
  Alcotest.(check int) "n" 3 a.Runner.n

let test_aggregate_with_timeouts () =
  let r = row "x" [ Some (outcome 10.0); Some (outcome ~timed_out:true 0.0) ] in
  let a = Runner.aggregate ~budget:100.0 r in
  Alcotest.(check int) "timeouts" 1 a.Runner.timeouts;
  Alcotest.(check (option (float 0.01))) "mean is N/A" None a.Runner.mean;
  (* Timeouts enter the median at the budget value, as in the paper. *)
  Alcotest.(check (float 0.01)) "median" 55.0 a.Runner.median;
  Alcotest.(check (option (float 0.01))) "max is TO" None a.Runner.max_

let test_aggregate_inapplicable_skipped () =
  let r = row "x" [ None; Some (outcome 10.0) ] in
  let a = Runner.aggregate ~budget:100.0 r in
  Alcotest.(check int) "n counts applicable only" 1 a.Runner.n

let test_relative_buckets () =
  let base = row "base" [ Some (outcome 100.0); Some (outcome 100.0); Some (outcome 100.0) ] in
  let other = row "other" [ Some (outcome 50.0); Some (outcome 100.0); Some (outcome 200.0) ] in
  let low, mid, high = Runner.relative_buckets ~baseline:base other in
  Alcotest.(check (float 0.1)) "low third" 33.3 low;
  Alcotest.(check (float 0.1)) "mid third" 33.3 mid;
  Alcotest.(check (float 0.1)) "high third" 33.3 high

let test_relative_buckets_timeout_is_high () =
  let base = row "base" [ Some (outcome 100.0) ] in
  let other = row "other" [ Some (outcome ~timed_out:true 1.0) ] in
  let _, _, high = Runner.relative_buckets ~baseline:base other in
  Alcotest.(check (float 0.1)) "timeout lands high" 100.0 high

let test_top_k () =
  let base =
    row "base" [ Some (outcome 5.0); Some (outcome 50.0); Some (outcome 20.0) ]
  in
  Alcotest.(check (list string)) "top 2" [ "q1"; "q2" ]
    (Runner.top_k_by ~baseline:base ~k:2);
  let filtered = Runner.filter_queries base [ "q1" ] in
  Alcotest.(check int) "filtered" 1 (List.length filtered.Runner.cells)

let test_run_suite_applicability () =
  (* On a workload with multi-instance UDFs, Postgres cells are None. *)
  let w =
    Udf_bench.workload { Udf_bench.seed = 3; imdb_scale = 0.02; tpch_scale = 0.02 }
  in
  let rows =
    Runner.run_suite
      { Runner.default_config with
        Runner.budget = 1e6;
        seed = 1;
        queries = Some [ "uq16" ];
        jobs = 1 }
      [ Strategy.postgres; Strategy.greedy ]
      w
  in
  (match rows with
  | [ pg; greedy ] ->
    Alcotest.(check bool) "postgres inapplicable" true
      ((List.hd pg.Runner.cells).Runner.outcome = None);
    Alcotest.(check bool) "greedy ran" true
      ((List.hd greedy.Runner.cells).Runner.outcome <> None)
  | _ -> Alcotest.fail "expected two rows")

(* --- Parallel suite determinism ---

   The headline invariant of the jobs knob: the row list is identical for
   every jobs value. Wall-clock fields aside, every outcome field is a
   deterministic function of (seed, strategy, query), so sequential and
   pooled runs must agree exactly. MONSOON_JOBS overrides the parallel
   width (the CI matrix runs 4). *)

let deterministic_fingerprint (rows : Runner.row list) =
  List.map
    (fun (r : Runner.row) ->
      ( r.Runner.strategy,
        List.map
          (fun (c : Runner.cell) ->
            ( c.Runner.query,
              Option.map
                (fun (o : Strategy.outcome) ->
                  ( o.Strategy.cost, o.Strategy.timed_out,
                    o.Strategy.stats_cost, o.Strategy.result_card,
                    o.Strategy.plan ))
                c.Runner.outcome ))
          r.Runner.cells ))
    rows

let test_jobs_invariance () =
  let jobs =
    match Option.bind (Sys.getenv_opt "MONSOON_JOBS") int_of_string_opt with
    | Some n when n >= 0 -> n
    | _ -> 4
  in
  let w =
    Tpch.workload { Tpch.seed = 11; scale = 0.05; skew = Tpch.Plain }
  in
  let strategies =
    [ Strategy.defaults; Strategy.greedy; Strategy.sampling;
      Strategy.monsoon ~iterations:60 ~scale_with_size:false
        Monsoon_stats.Prior.spike_and_slab ]
  in
  let config jobs =
    { Runner.default_config with
      Runner.budget = 1e6;
      seed = 11;
      queries = Some [ "tq1"; "tq2"; "tq12" ];
      jobs }
  in
  let seq = Runner.run_suite (config 1) strategies w in
  let par = Runner.run_suite (config jobs) strategies w in
  Alcotest.(check bool)
    (Printf.sprintf "rows identical for jobs=1 and jobs=%d" jobs)
    true
    (deterministic_fingerprint seq = deterministic_fingerprint par);
  (* Sanity: the suite did real work (some cost is non-zero). *)
  let some_cost =
    List.exists
      (fun (r : Runner.row) ->
        List.exists
          (fun (c : Runner.cell) ->
            match c.Runner.outcome with
            | Some o -> o.Strategy.cost > 0.0
            | None -> false)
          r.Runner.cells)
      seq
  in
  Alcotest.(check bool) "suite produced costs" true some_cost

let test_default_config () =
  Alcotest.(check int) "jobs default" 1 Runner.default_config.Runner.jobs;
  Alcotest.(check bool) "all queries" true
    (Runner.default_config.Runner.queries = None)

(* --- Experiments (fast ones, exactness) --- *)

let test_table1_exact () =
  let s = Experiments.table1 () in
  (* The four scenario rows must reproduce the paper's numbers. *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains s needle))
    [ "10.00M"; "1.00M"; "Both"; "((R⨝T)⨝S)"; "((R⨝S)⨝T)" ]

let test_figure2_has_all_priors () =
  let s = Experiments.figure2 () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (contains s name))
    [ "Uniform"; "Increasing"; "Decreasing"; "U-Shaped"; "Low Biased" ]

(* Tables 3/4/5 are memoized per process: a profile that differs in any
   data field (here only the seed) must get its own run, while one that
   differs only in [jobs] may share it (jobs invariance). *)
let test_memo_keyed_on_profile () =
  let small =
    { Experiments.quick with
      Experiments.imdb_scale = 0.05;
      imdb_queries = Some [ "iq1" ];
      monsoon_iterations = 20 }
  in
  let t3 p = let t, _, _ = Experiments.tables3_4_5 p in t in
  let seed42 = t3 small in
  Alcotest.(check bool) "another seed, another table" false
    (String.equal seed42 (t3 { small with Experiments.seed = 43 }));
  Alcotest.(check bool) "jobs share the memo" true
    (t3 { small with Experiments.jobs = 2 } == seed42)

let test_experiment_registry () =
  let ids = List.map (fun (id, _, _) -> id) Experiments.all in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " registered") true (List.mem id ids))
    [ "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "table7";
      "table8"; "figure1"; "figure2"; "figure3"; "warmstart" ];
  Alcotest.(check int) "16 experiments" 16 (List.length ids)

let () =
  Alcotest.run "harness"
    [ ( "report",
        [ Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "cost format" `Quick test_cost_format;
          Alcotest.test_case "seconds format" `Quick test_seconds_format;
          Alcotest.test_case "series" `Quick test_series_render ] );
      ( "runner",
        [ Alcotest.test_case "aggregate" `Quick test_aggregate_no_timeouts;
          Alcotest.test_case "aggregate timeouts" `Quick test_aggregate_with_timeouts;
          Alcotest.test_case "inapplicable skipped" `Quick test_aggregate_inapplicable_skipped;
          Alcotest.test_case "relative buckets" `Quick test_relative_buckets;
          Alcotest.test_case "timeout bucket" `Quick test_relative_buckets_timeout_is_high;
          Alcotest.test_case "top-k & filter" `Quick test_top_k;
          Alcotest.test_case "applicability" `Quick test_run_suite_applicability;
          Alcotest.test_case "default config" `Quick test_default_config;
          Alcotest.test_case "jobs invariance" `Slow test_jobs_invariance ] );
      ( "experiments",
        [ Alcotest.test_case "table1 exact" `Quick test_table1_exact;
          Alcotest.test_case "figure2 priors" `Quick test_figure2_has_all_priors;
          Alcotest.test_case "registry" `Quick test_experiment_registry;
          Alcotest.test_case "memo keyed on the profile" `Quick
            test_memo_keyed_on_profile ] ) ]
