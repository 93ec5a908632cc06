open Monsoon_util
open Monsoon_relalg
open Monsoon_stats
open Monsoon_core
open Monsoon_baselines
open Monsoon_workloads
open Monsoon_telemetry
module Stats_repo = Monsoon_stats_repo.Stats_repo

type profile = {
  label : string;
  seed : int;
  imdb_scale : float;
  tpch_scale : float;
  ott_scale : float;
  udf_imdb_scale : float;
  udf_tpch_scale : float;
  imdb_budget : float;
  tpch_budget : float;
  ott_budget : float;
  udf_budget : float;
  monsoon_iterations : int;
  tpch_queries : string list option;
  imdb_queries : string list option;
  jobs : int;  (* domains for the (strategy, query) grid; 0 = all cores *)
  ctx : Ctx.t;
}

let quick =
  { label = "quick";
    seed = 42;
    imdb_scale = 0.1;
    tpch_scale = 0.1;
    ott_scale = 0.15;
    udf_imdb_scale = 0.08;
    udf_tpch_scale = 0.08;
    imdb_budget = 1e6;
    tpch_budget = 1e6;
    ott_budget = 3e5;
    udf_budget = 1e6;
    monsoon_iterations = 150;
    tpch_queries = Some [ "tq1"; "tq2"; "tq9"; "tq12" ];
    imdb_queries = Some [ "iq1"; "iq7"; "iq13"; "iq22"; "iq31"; "iq46"; "iq51"; "iq58" ];
    jobs = 1;
    ctx = Ctx.null () }

let full =
  { label = "full";
    seed = 1729;
    imdb_scale = 0.5;
    tpch_scale = 0.4;
    ott_scale = 0.5;
    udf_imdb_scale = 0.25;
    udf_tpch_scale = 0.25;
    (* Budgets follow the paper's proportions: the 20-minute timeout was
       ~1.2x the full-statistics baseline's worst query. *)
    imdb_budget = 3e6;
    tpch_budget = 2e6;
    ott_budget = 2e6;
    udf_budget = 2e6;
    monsoon_iterations = 400;
    tpch_queries = None;
    imdb_queries = None;
    jobs = 1;
    ctx = Ctx.null () }

(* --- Shared pieces of the Sec 2.3 walkthrough (Table 1, Figure 1) --- *)

let sec23_query () =
  let b = Query.Builder.create ~name:"sec2.3" in
  let r = Query.Builder.rel b ~table:"R" ~alias:"R" in
  let s = Query.Builder.rel b ~table:"S" ~alias:"S" in
  let t = Query.Builder.rel b ~table:"T" ~alias:"T" in
  let f1 = Query.Builder.term b (Udf.identity "a") [ (r, "a") ] in
  let f2 = Query.Builder.term b (Udf.identity "b") [ (s, "b") ] in
  let f3 = Query.Builder.term b (Udf.identity "c") [ (r, "c") ] in
  let f4 = Query.Builder.term b (Udf.identity "d") [ (t, "d") ] in
  Query.Builder.join_pred b f1 f2;
  Query.Builder.join_pred b f3 f4;
  Query.Builder.build b

let sec23_raw = [| 1e6; 1e4; 1e4 |]

let sec23_env ~d_s ~d_t =
  { Cost_model.count_of = (fun _ -> None);
    raw_count = (fun i -> sec23_raw.(i));
    distinct_of =
      (fun ~term ~pred:_ ~c_own:_ ~c_partner:_ ->
        match term.Term.id with
        | 0 | 2 -> 1000.0
        | 1 -> d_s
        | 3 -> d_t
        | _ -> assert false);
    record_count = (fun _ _ -> ()) }

let table1 () =
  let q = sec23_query () in
  let plan_rs_t = Expr.join (Expr.join (Expr.base 0) (Expr.base 1)) (Expr.base 2) in
  let plan_rt_s = Expr.join (Expr.join (Expr.base 0) (Expr.base 2)) (Expr.base 1) in
  let rows =
    List.map
      (fun (d_s, d_t) ->
        let env = sec23_env ~d_s ~d_t in
        let c1 = Cost_model.cost q env plan_rs_t in
        let c2 = Cost_model.cost q env plan_rt_s in
        let optimal =
          if c1 < c2 then "((R⨝S)⨝T)"
          else if c2 < c1 then "((R⨝T)⨝S)"
          else "Both"
        in
        [ Printf.sprintf "%.0f" d_s; Printf.sprintf "%.0f" d_t; optimal;
          Report.cost (Float.min c1 c2) ])
      [ (1.0, 1.0); (1.0, 1e4); (1e4, 1.0); (1e4, 1e4) ]
  in
  Report.table ~title:"Table 1: enumerating attribute cardinalities (Sec 2.3)"
    ~header:[ "d(F2,S)"; "d(F4,T)"; "Optimal Plan"; "Int. Tuples" ]
    rows
  ^ "  paper: rows are (1,1,Both,10M) (1,1e4,(R⨝T)⨝S,1M) (1e4,1,(R⨝S)⨝T,1M) (1e4,1e4,Both,1M)\n"

let two_point =
  Prior.custom ~name:"two-point"
    ~sample:(fun rng ~c_own ~c_partner:_ ->
      if Rng.bool rng then 1.0 else Float.min 10_000.0 c_own)
    ()

let point v =
  Prior.custom ~name:"point" ~sample:(fun _ ~c_own:_ ~c_partner:_ -> v) ()

let sec23_mdp ~seed =
  let ctx = Mdp.ctx_of_sizes (sec23_query ()) sec23_raw in
  let state = Mdp.init_state ctx in
  Stats_catalog.set_distinct state.Mdp.stats ~term:0 ~scope:Stats_catalog.Wildcard 1000.0;
  Stats_catalog.set_distinct state.Mdp.stats ~term:2 ~scope:Stats_catalog.Wildcard 1000.0;
  let sim =
    Simulator.create_with ctx
      ~prior_of:(function 1 | 3 -> two_point | _ -> point 1000.0)
      (Rng.create seed)
  in
  (ctx, state, sim)

(* Figure 1's numbers: the expected cost of guessing, the expected cost
   of Σ-first, and the action MCTS picks from the start state. *)
let figure1_data () =
  let ctx, state, sim = sec23_mdp ~seed:7 in
  let r = Relset.singleton 0 and s = Relset.singleton 1 and t = Relset.singleton 2 in
  let after edits =
    List.fold_left (fun st a -> Mdp.apply_plan_edit st a) state edits
  in
  let guess_rs =
    Simulator.expected_execute_cost sim
      (after
         [ Mdp.Join_exec (r, s);
           Mdp.Join_mixed (t, Expr.join (Expr.leaf r) (Expr.leaf s)) ])
      ~n:4000
  in
  let sigma_s = after [ Mdp.Add_stats_of_exec s ] in
  (* Expected total of the statistics-first strategy: pay the scan, then
     execute the optimal order for whatever the scan reveals. *)
  let n = 2000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let st', rwd = Simulator.step sim sigma_s Mdp.Execute in
    let best =
      Float.min
        (Simulator.expected_execute_cost sim
           (Mdp.apply_plan_edit
              (Mdp.apply_plan_edit st' (Mdp.Join_exec (r, s)))
              (Mdp.Join_mixed (t, Expr.join (Expr.leaf r) (Expr.leaf s))))
           ~n:1)
        (Simulator.expected_execute_cost sim
           (Mdp.apply_plan_edit
              (Mdp.apply_plan_edit st' (Mdp.Join_exec (r, t)))
              (Mdp.Join_mixed (s, Expr.join (Expr.leaf r) (Expr.leaf t))))
           ~n:1)
    in
    total := !total -. rwd +. best
  done;
  let sigma_first = !total /. float_of_int n in
  let cfg =
    { (Monsoon_mcts.Mcts.default_config ~rng:(Rng.create 42)) with
      Monsoon_mcts.Mcts.iterations = 20_000 }
  in
  let chosen =
    Option.map fst (Monsoon_mcts.Mcts.plan cfg (Simulator.problem sim) state)
  in
  (ctx, guess_rs, sigma_first, chosen)

let figure1_first_action () =
  let _, _, _, chosen = figure1_data () in
  chosen

let figure1 () =
  let ctx, guess_rs, sigma_first, chosen = figure1_data () in
  let chosen =
    match chosen with
    | Some a -> Mdp.describe_action ctx a
    | None -> "(terminal)"
  in
  Report.series ~title:"Figure 1: the Sec 2.3 MDP — expected strategy costs"
    ~x_label:"strategy" ~y_label:"expected intermediate objects"
    [ ("guess ((R⨝S)⨝T) immediately", guess_rs);
      ("Σ(S) first, then optimal order", sigma_first) ]
  ^ Printf.sprintf
      "  paper: guessing ≈ 5.5M expected; Σ-first ≈ 0.01M + 3.25M.\n\
      \  MCTS from the start state chooses: %s\n"
      chosen

let figure2 () =
  let xs = List.init 19 (fun i -> 0.05 *. float_of_int (i + 1)) in
  let priors =
    [ Prior.uniform; Prior.increasing; Prior.decreasing; Prior.u_shaped;
      Prior.low_biased ]
  in
  let header = "x (= d / c(r))" :: List.map Prior.name priors in
  let rows =
    List.map
      (fun x ->
        Printf.sprintf "%.2f" x
        :: List.map (fun p -> Printf.sprintf "%.3f" (Prior.density p ~x)) priors)
      xs
  in
  Report.table ~title:"Figure 2: prior densities over the distinct-count fraction"
    ~header rows
  ^ "  (Spike-and-Slab adds 10% point masses at c(r) and c(s); Discrete is a\n\
    \   point mass at 0.1*c(r).)\n"

(* --- Benchmark-driven tables --- *)

let monsoon_strategy profile prior =
  Strategy.monsoon ~iterations:profile.monsoon_iterations prior

let run_workload profile ~budget ?queries strategies workload =
  Runner.run_suite ~env:(Ctx.to_env profile.ctx)
    { Runner.default_config with
      Runner.budget;
      seed = profile.seed;
      queries;
      jobs = profile.jobs }
    strategies workload

let table2 profile =
  let skews = [ Tpch.Plain; Tpch.Low; Tpch.High; Tpch.Mixed ] in
  (* 28 Monsoon configurations over 4 databases: run each at half the MCTS
     effort (and without the query-size multiplier) to keep the sweep
     tractable. *)
  let monsoon prior =
    Strategy.monsoon
      ~iterations:(max 100 (profile.monsoon_iterations / 2))
      ~scale_with_size:false prior
  in
  let results =
    List.map
      (fun skew ->
        let w =
          Tpch.workload
            { Tpch.seed = profile.seed; scale = profile.tpch_scale; skew }
        in
        let rows =
          run_workload profile ~budget:profile.tpch_budget
            ?queries:profile.tpch_queries
            (List.map monsoon Prior.all)
            w
        in
        (* run_suite names every row "Monsoon"; pair them back with the
           priors by position. *)
        List.map2
          (fun prior row ->
            (Prior.name prior, Runner.aggregate ~budget:profile.tpch_budget row))
          Prior.all rows)
      skews
  in
  let header = "Prior" :: List.map Tpch.skew_name skews in
  let rows =
    List.map
      (fun prior ->
        Prior.name prior
        :: List.map
             (fun per_skew ->
               let agg = List.assoc (Prior.name prior) per_skew in
               Runner.(
                 match agg.mean with
                 | Some m -> Report.cost m
                 | None -> "N/A"))
             results)
      Prior.all
  in
  Report.table
    ~title:
      "Table 2: average Monsoon cost per prior across TPC-H skew variants\n\
      \  (N/A: a query timed out; paper shape: Spike-and-Slab consistently near the top)"
    ~header rows

let seven profile = Strategy.standard_seven Prior.spike_and_slab
  |> List.map (fun (s : Strategy.t) ->
         if s.Strategy.name = "Monsoon" then monsoon_strategy profile Prior.spike_and_slab
         else s)

(* Tables 3/4/5 share one IMDB run and Table 7/Figure 3 one UDF run; cache
   them so `run all` does not repeat multi-minute suites. *)
let memo_cache : (string, string * string * string) Hashtbl.t = Hashtbl.create 4

let memoized key compute =
  match Hashtbl.find_opt memo_cache key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.replace memo_cache key v;
    v

let imdb_suite profile =
  let w = Imdb.workload { Imdb.seed = profile.seed; scale = profile.imdb_scale } in
  run_workload profile ~budget:profile.imdb_budget ?queries:profile.imdb_queries
    (seven profile) w

let tables3_4_5_uncached profile =
  let rows = imdb_suite profile in
  let budget = profile.imdb_budget in
  let t3 =
    Report.agg_table
      ~title:"Table 3: performance on the IMDB-like benchmark (objects; TO = budget exhausted)"
      ~budget
      (List.map (Runner.aggregate ~budget) rows)
  in
  let baseline =
    List.find (fun (r : Runner.row) -> r.Runner.strategy = "Postgres") rows
  in
  let t4 =
    Report.table
      ~title:"Table 4: share of IMDB queries relative to Postgres (full statistics)"
      ~header:[ "Impl."; "<0.9"; "[0.9,1.1)"; ">1.1" ]
      (List.filter_map
         (fun (r : Runner.row) ->
           if r.Runner.strategy = "Postgres" then None
           else begin
             let low, mid, high = Runner.relative_buckets ~baseline r in
             Some
               [ r.Runner.strategy; Printf.sprintf "%.1f%%" low;
                 Printf.sprintf "%.1f%%" mid; Printf.sprintf "%.1f%%" high ]
           end)
         rows)
  in
  let top =
    Runner.top_k_by ~baseline ~k:(min 20 (List.length baseline.Runner.cells))
  in
  let t5 =
    Report.agg_table
      ~title:"Table 5: the most expensive IMDB queries (top-20 by Postgres cost)"
      ~budget
      (List.map
         (fun r -> Runner.aggregate ~budget (Runner.filter_queries r top))
         rows)
  in
  (t3, t4, t5)

let tables3_4_5 profile =
  memoized ("t345-" ^ profile.label) (fun () -> tables3_4_5_uncached profile)

let ott_suite profile =
  let cfg = { Ott.seed = profile.seed; scale = profile.ott_scale; domain = 100 } in
  let w = Ott.workload cfg in
  let strategies =
    Strategy.fixed_plan ~name:"Hand-written" (fun q -> Ott.hand_written (Query.name q) q)
    :: seven profile
  in
  run_workload profile ~budget:profile.ott_budget strategies w

let table6 profile =
  let rows = ott_suite profile in
  Report.agg_table
    ~title:
      "Table 6: Optimizer Torture Tests (correlated columns; every result is empty)"
    ~budget:profile.ott_budget
    (List.map (Runner.aggregate ~budget:profile.ott_budget) rows)

let udf_strategies profile =
  (* Postgres and On-Demand are dropped on the UDF benchmark (paper
     Sec 6.2.2). *)
  [ Strategy.defaults; Strategy.greedy;
    monsoon_strategy profile Prior.spike_and_slab; Strategy.sampling;
    Strategy.skinner ]

let table7_figure3_uncached profile =
  let w =
    Udf_bench.workload
      { Udf_bench.seed = profile.seed;
        imdb_scale = profile.udf_imdb_scale;
        tpch_scale = profile.udf_tpch_scale }
  in
  let rows = run_workload profile ~budget:profile.udf_budget (udf_strategies profile) w in
  let t7 =
    Report.agg_table ~title:"Table 7: queries with UDFs (incl. multi-instance UDFs)"
      ~budget:profile.udf_budget
      (List.map (Runner.aggregate ~budget:profile.udf_budget) rows)
  in
  let monsoon_row =
    List.find (fun (r : Runner.row) -> r.Runner.strategy = "Monsoon") rows
  in
  let order =
    List.filter_map
      (fun (c : Runner.cell) ->
        Option.map
          (fun o ->
            ( c.Runner.query,
              if o.Strategy.timed_out then profile.udf_budget else o.Strategy.cost ))
          c.Runner.outcome)
      monsoon_row.Runner.cells
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let cell_for (r : Runner.row) qname =
    match List.find_opt (fun c -> c.Runner.query = qname) r.Runner.cells with
    | Some { Runner.outcome = Some o; _ } ->
      if o.Strategy.timed_out then "TO" else Report.cost o.Strategy.cost
    | Some { Runner.outcome = None; _ } | None -> "-"
  in
  let fig3 =
    Report.table
      ~title:
        "Figure 3: per-query cost on the UDF benchmark, sorted by Monsoon\n\
        \  (paper: Monsoon's curve stays lowest on the expensive tail)"
      ~header:("query" :: List.map (fun (r : Runner.row) -> r.Runner.strategy) rows)
      (List.map
         (fun (qname, _) -> qname :: List.map (fun r -> cell_for r qname) rows)
         order)
  in
  (t7, fig3)

let table7_figure3 profile =
  let t7, f3 =
    let pair =
      memoized ("t7f3-" ^ profile.label) (fun () ->
          let a, b = table7_figure3_uncached profile in
          (a, b, ""))
    in
    match pair with a, b, _ -> (a, b)
  in
  (t7, f3)

let table8 profile =
  let monsoon = monsoon_strategy profile Prior.spike_and_slab in
  let bench ~name ~budget ?queries w =
    (* Each benchmark runs under a fresh in-memory trace; the row is
       derived from the spans the instrumented stack emits (MCTS planning
       wall-time, Σ-pass objects, executed objects) rather than from
       per-outcome accumulator fields. *)
    let buf = Span.memory_buffer () in
    let tel = Ctx.create ~sink:(Span.Memory buf) () in
    let rows =
      Runner.run_suite ~env:(Ctx.to_env tel)
        { Runner.default_config with
          Runner.budget;
          seed = profile.seed;
          queries;
          jobs = profile.jobs }
        [ monsoon ] w
    in
    match rows with
    | [ row ] ->
      let outs = List.filter_map (fun c -> c.Runner.outcome) row.Runner.cells in
      let n = float_of_int (max 1 (List.length outs)) in
      let comps = Snapshot.breakdown (Span.buffer_spans buf) in
      let seconds_of nm =
        match Snapshot.component nm comps with
        | Some c -> c.Snapshot.comp_seconds
        | None -> 0.0
      in
      let objects_of nm =
        match Snapshot.component nm comps with
        | Some c -> c.Snapshot.comp_objects
        | None -> 0.0
      in
      let sigma = objects_of "exec.sigma" in
      (* [exec.execute] spans carry the full charged cost, Σ included. *)
      let execution = Float.max 0.0 (objects_of "exec.execute" -. sigma) in
      [ name;
        Report.seconds (seconds_of "mcts.plan" /. n);
        Report.cost (sigma /. n);
        Report.cost (execution /. n) ]
    | _ -> assert false
  in
  let imdb = Imdb.workload { Imdb.seed = profile.seed; scale = profile.imdb_scale } in
  let imdb_row = bench ~name:"IMDB" ~budget:profile.imdb_budget ?queries:profile.imdb_queries imdb in
  let top20 =
    (* IMDB-20 as in Table 5: the most expensive queries under Postgres. *)
    let rows =
      run_workload profile ~budget:profile.imdb_budget ?queries:profile.imdb_queries
        [ Strategy.postgres ] imdb
    in
    Runner.top_k_by ~baseline:(List.hd rows) ~k:(min 20 (List.length (List.hd rows).Runner.cells))
  in
  let imdb20_row =
    bench ~name:"IMDB-20" ~budget:profile.imdb_budget ~queries:top20 imdb
  in
  let ott_row =
    bench ~name:"OTT" ~budget:profile.ott_budget
      (Ott.workload { Ott.seed = profile.seed; scale = profile.ott_scale; domain = 100 })
  in
  let udf_row =
    bench ~name:"UDF" ~budget:profile.udf_budget
      (Udf_bench.workload
         { Udf_bench.seed = profile.seed;
           imdb_scale = profile.udf_imdb_scale;
           tpch_scale = profile.udf_tpch_scale })
  in
  Report.table
    ~title:
      "Table 8: Monsoon component breakdown per query\n\
      \  (MCTS: planning wall-time; Σ and Execution: objects processed)"
    ~header:[ "Benchmark"; "MCTS"; "Σ"; "Execution" ]
    [ imdb_row; imdb20_row; ott_row; udf_row ]

(* --- Ablations (beyond the paper's tables) --- *)

let ablation_workload profile =
  let w = Imdb.workload { Imdb.seed = profile.seed; scale = profile.imdb_scale } in
  let queries =
    match profile.imdb_queries with
    | Some qs -> Some qs
    | None -> Some [ "iq1"; "iq7"; "iq13"; "iq22"; "iq31"; "iq46"; "iq51"; "iq58" ]
  in
  (w, queries)

let ablation_selection profile =
  let w, queries = ablation_workload profile in
  let strategies =
    [ Strategy.monsoon ~iterations:profile.monsoon_iterations
        ~selection:(Monsoon_mcts.Mcts.Uct (sqrt 2.0))
        Prior.spike_and_slab;
      Strategy.monsoon ~iterations:profile.monsoon_iterations
        ~selection:Monsoon_mcts.Mcts.Epsilon_greedy Prior.spike_and_slab ]
  in
  let rows = run_workload profile ~budget:profile.imdb_budget ?queries strategies w in
  let aggs = List.map (Runner.aggregate ~budget:profile.imdb_budget) rows in
  let named = List.map2 (fun n a -> { a with Runner.agg_name = n })
      [ "Monsoon (UCT, w=sqrt 2)"; "Monsoon (eps-greedy)" ] aggs in
  Report.agg_table ~title:"Ablation: MCTS selection strategy (IMDB subset)"
    ~budget:profile.imdb_budget named

let ablation_iterations profile =
  let w, queries = ablation_workload profile in
  let iteration_counts = [ 50; 200; 800 ] in
  let strategies =
    List.map (fun i -> Strategy.monsoon ~iterations:i Prior.spike_and_slab) iteration_counts
  in
  let rows = run_workload profile ~budget:profile.imdb_budget ?queries strategies w in
  let aggs = List.map (Runner.aggregate ~budget:profile.imdb_budget) rows in
  let named =
    List.map2
      (fun i a -> { a with Runner.agg_name = Printf.sprintf "%d iterations" i })
      iteration_counts aggs
  in
  Report.agg_table ~title:"Ablation: MCTS iteration budget (IMDB subset)"
    ~budget:profile.imdb_budget named

(* Least-expected-cost optimization (the paper's closest prior work) under
   the same prior: measures what interleaved statistics collection buys
   over picking one expected-cost-optimal plan up front. *)
let ablation_lec profile =
  let w, queries = ablation_workload profile in
  let strategies =
    [ Strategy.monsoon ~iterations:profile.monsoon_iterations Prior.spike_and_slab;
      Lec.strategy Prior.spike_and_slab;
      Strategy.postgres ]
  in
  let rows = run_workload profile ~budget:profile.imdb_budget ?queries strategies w in
  Report.agg_table
    ~title:
      "Ablation: Monsoon (multi-step) vs least-expected-cost (plan once under\n\
      \  the same prior) vs full statistics (IMDB subset)"
    ~budget:profile.imdb_budget
    (List.map (Runner.aggregate ~budget:profile.imdb_budget) rows)

let spike_free =
  Prior.custom ~name:"Slab only"
    ~sample:(fun rng ~c_own ~c_partner:_ ->
      1.0 +. Rng.float rng (Float.max 0.0 (c_own -. 1.0)))
    ~density:(fun ~x -> if x > 0.0 && x < 1.0 then 1.0 else 0.0)
    ()

let ablation_prior_spikes profile =
  let w, queries = ablation_workload profile in
  let strategies =
    [ Strategy.monsoon ~iterations:profile.monsoon_iterations Prior.spike_and_slab;
      Strategy.monsoon ~iterations:profile.monsoon_iterations spike_free ]
  in
  let rows = run_workload profile ~budget:profile.imdb_budget ?queries strategies w in
  let aggs = List.map (Runner.aggregate ~budget:profile.imdb_budget) rows in
  let named =
    List.map2 (fun n a -> { a with Runner.agg_name = n })
      [ "Spike and Slab"; "Slab only (no FK spikes)" ] aggs
  in
  Report.agg_table
    ~title:"Ablation: foreign-key spikes in the spike-and-slab prior (IMDB subset)"
    ~budget:profile.imdb_budget named

(* --- Cold vs warm: the cross-query statistics repository --- *)

(* A fresh-start guarantee for the cold phase: drop the observation log and
   every snapshot so a rerun (or a previous experiment on the same path)
   cannot leak history into the "cold" regime. *)
let reset_repo path =
  let r = Stats_repo.open_ path in
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    (Stats_repo.snapshots r);
  if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ())

let with_warmstart_repo ?repo_path f =
  let given =
    match repo_path with Some _ -> repo_path | None -> Sys.getenv_opt "MONSOON_REPO"
  in
  match given with
  | Some path ->
    reset_repo path;
    f path
  | None ->
    (* A fresh directory per run, so concurrent runs never share a log; the
       log keeps its usual name, which the report's snapshot diff shows. *)
    let dir = Filename.temp_dir "monsoon-warmstart-" "" in
    let path = Filename.concat dir "monsoon-warmstart.jsonl" in
    Fun.protect
      ~finally:(fun () ->
        reset_repo path;
        try Sys.rmdir dir with Sys_error _ -> ())
      (fun () -> f path)

let warmstart ?repo_path profile =
  with_warmstart_repo ?repo_path @@ fun repo_path ->
  let w, queries = ablation_workload profile in
  (* Each regime runs under its own null-sink context so the replans and
     warm-start counters read back per regime. Counter values are sums of
     exact small integers, so they are identical for every [jobs]
     setting. *)
  let regime repo =
    let tel = Ctx.null () in
    let rows =
      Runner.run_suite ~env:(Ctx.to_env tel)
        { Runner.default_config with
          Runner.budget = profile.imdb_budget;
          seed = profile.seed;
          queries;
          jobs = profile.jobs }
        [ Strategy.monsoon ~iterations:profile.monsoon_iterations
            ~stats_repo:repo Prior.spike_and_slab ]
        w
    in
    let row = match rows with [ r ] -> r | _ -> assert false in
    let counter n = int_of_float (Metric.Counter.value (Ctx.counter tel n)) in
    (row, counter "driver.replans", counter "repo.warm_starts")
  in
  (* Cold: the repository exists but is empty, so every lookup misses and
     the run both plans from scratch and seeds the log. Warm: reopening the
     same path freezes the cold run's observations as the baseline. *)
  let cold_repo = Stats_repo.open_ repo_path in
  let cold_row, cold_replans, _ = regime cold_repo in
  let snap_cold = Stats_repo.snapshot cold_repo in
  let warm_repo = Stats_repo.open_ repo_path in
  let warm_row, warm_replans, warm_seeds = regime warm_repo in
  let snap_warm = Stats_repo.snapshot warm_repo in
  let objects (c : Runner.cell) =
    match c.Runner.outcome with
    | Some o ->
      if o.Strategy.timed_out then profile.imdb_budget else o.Strategy.cost
    | None -> profile.imdb_budget
  in
  let stats_objects (c : Runner.cell) =
    match c.Runner.outcome with
    | Some o -> o.Strategy.stats_cost
    | None -> 0.0
  in
  let cells = List.combine cold_row.Runner.cells warm_row.Runner.cells in
  let table_rows =
    List.map
      (fun ((cc : Runner.cell), (wc : Runner.cell)) ->
        let co = objects cc and wo = objects wc in
        [ cc.Runner.query; Report.cost co; Report.cost wo;
          (if wo < co then "better" else if wo > co then "WORSE" else "same") ])
      cells
  in
  let total f l = List.fold_left (fun acc c -> acc +. f c) 0.0 l in
  let cold_total = total objects cold_row.Runner.cells in
  let warm_total = total objects warm_row.Runner.cells in
  let cold_sigma = total stats_objects cold_row.Runner.cells in
  let warm_sigma = total stats_objects warm_row.Runner.cells in
  let nq = float_of_int (max 1 (List.length cells)) in
  let diff_report =
    match (snap_cold, snap_warm) with
    | Ok a, Ok b -> (
      match Stats_repo.diff ~old_:a ~new_:b with
      | Ok d -> d
      | Error e -> "diff failed: " ^ e ^ "\n")
    | Error e, _ | _, Error e -> "snapshot failed: " ^ e ^ "\n"
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Warm-start: cold vs warm Monsoon on the repeated %s subset (seed %d)"
         w.Workload.name profile.seed)
    ~header:[ "Query"; "Cold objects"; "Warm objects"; "Verdict" ]
    table_rows
  ^ Printf.sprintf
      "  totals: objects cold %s warm %s; Σ objects cold %s warm %s\n\
      \  replans/query: cold %.2f warm %.2f; warm-start seeds: %d\n"
      (Report.cost cold_total) (Report.cost warm_total)
      (Report.cost cold_sigma) (Report.cost warm_sigma)
      (float_of_int cold_replans /. nq)
      (float_of_int warm_replans /. nq)
      warm_seeds
  ^ Printf.sprintf "  WARMSTART DOMINANCE: objects=%s replans=%s\n\n"
      (if warm_total < cold_total then "yes" else "no")
      (if warm_replans < cold_replans then "yes" else "no")
  ^ diff_report

(* --- The flight-recorder entry point (`monsoon explain`) --- *)

let workload_for profile id =
  match String.lowercase_ascii id with
  | "table2" | "tpch" ->
    Ok
      ( Tpch.workload
          { Tpch.seed = profile.seed; scale = profile.tpch_scale; skew = Tpch.Plain },
        profile.tpch_budget,
        profile.tpch_queries )
  | "table3" | "table4" | "table5" | "imdb" ->
    Ok
      ( Imdb.workload { Imdb.seed = profile.seed; scale = profile.imdb_scale },
        profile.imdb_budget,
        profile.imdb_queries )
  | "table6" | "ott" ->
    Ok
      ( Ott.workload
          { Ott.seed = profile.seed; scale = profile.ott_scale; domain = 100 },
        profile.ott_budget,
        None )
  | "table7" | "figure3" | "udf" ->
    Ok
      ( Udf_bench.workload
          { Udf_bench.seed = profile.seed;
            imdb_scale = profile.udf_imdb_scale;
            tpch_scale = profile.udf_tpch_scale },
        profile.udf_budget,
        None )
  | _ ->
    Error
      (Printf.sprintf
         "unknown experiment %S; known: tpch (table2), imdb \
          (table3/table4/table5), ott (table6), udf (table7/figure3)"
         id)

let explain ?(op_profile = false) profile ~experiment ~query =
  match workload_for profile experiment with
  | Error e -> Error e
  | Ok (w, budget, _queries) -> (
    match List.assoc_opt query w.Workload.queries with
    | None ->
      Error
        (Printf.sprintf "unknown query %S in %s; available: %s" query
           w.Workload.name
           (String.concat ", " (List.map fst w.Workload.queries)))
    | Some q ->
      (* Mirror the Runner's per-(strategy, query) seeding and the Monsoon
         strategy's own config, so the explained run is the same run an
         experiment table would have measured. *)
      let rng =
        Runner.cell_rng ~seed:profile.seed ~strategy:"Monsoon" ~query
      in
      let config =
        Strategy.monsoon_config ~iterations:profile.monsoon_iterations
          Prior.spike_and_slab ~rng ~budget q
      in
      let recorder = Recorder.create () in
      let env = Ctx.to_env (Ctx.with_recorder profile.ctx recorder) in
      (* Operator profiling is opt-in: a live collector turns on the
         per-node scratch in the executor, and the driver joins the
         drained nodes onto the Executed events the report renders. *)
      let _outcome =
        Driver.run
          ~profile:
            (if op_profile then Monsoon_exec.Profile.create ()
             else Monsoon_exec.Profile.disabled)
          ~env config w.Workload.catalog q
      in
      Ok recorder)

(* --- The serving handler (`monsoon serve` / `monsoon load`) --- *)

let service profile ~experiment ?(faults = Fault.no_faults) ?stats_repo () =
  match workload_for profile experiment with
  | Error e -> Error e
  | Ok (w, budget, queries) ->
    let names =
      match queries with
      | Some qs -> List.filter (fun q -> List.mem_assoc q w.Workload.queries) qs
      | None -> List.map fst w.Workload.queries
    in
    let strategy =
      Strategy.monsoon ~iterations:profile.monsoon_iterations ?stats_repo
        Prior.spike_and_slab
    in
    let handler ~id:_ ~rng ~env ~recorder ~trace qname =
      match List.assoc_opt qname w.Workload.queries with
      | None ->
        Error
          (`Unknown_query
            (Printf.sprintf "unknown query %S; GET /queries lists the suite"
               qname))
      | Some q ->
        (* The Runner idiom: the fault plan splits off a copy, so a
           rate-zero spec leaves the request's stream byte-identical to an
           unfaulted run. Worker kills are a pool-level concern
           (Server.inject_kills), not a per-request one. *)
        let fault = Fault.plan faults (Rng.split (Rng.copy rng)) in
        let ctx =
          Ctx.with_trace_id (Ctx.with_recorder profile.ctx recorder) trace
        in
        let env = Env.with_fault (Ctx.to_env ~env ctx) fault in
        let o = strategy.Strategy.run ~env ~rng ~budget w.Workload.catalog q in
        Ok
          { Monsoon_server.Server.x_cost = o.Strategy.cost;
            x_timed_out = o.Strategy.timed_out;
            x_degraded = o.Strategy.degraded > 0;
            x_plan = o.Strategy.plan }
    in
    Ok (handler, names)

(* --- Deterministic chaos runs (`monsoon chaos`) --- *)

let chaos profile ~experiment ~faults ~retries ~cell_deadline ?qlog () =
  match workload_for profile experiment with
  | Error e -> Error e
  | Ok (w, budget, queries) ->
    let config =
      { Runner.budget;
        seed = profile.seed;
        queries;
        jobs = profile.jobs;
        faults = Some faults;
        retries;
        cell_deadline;
        qlog }
    in
    let rows = Runner.run_suite ~env:(Ctx.to_env profile.ctx) config (seven profile) w in
    (* Everything below is derived from the returned cells and the metric
       registry — no wall-clock numbers — so the same seed + spec renders a
       byte-identical report across runs and across [jobs] settings. *)
    let survival =
      List.map
        (fun (r : Runner.row) ->
          let applicable =
            List.filter (fun (c : Runner.cell) -> c.Runner.attempts > 0) r.cells
          in
          let ok, timeouts, degraded =
            List.fold_left
              (fun (ok, t, d) (c : Runner.cell) ->
                match c.Runner.outcome with
                | Some o when o.Strategy.timed_out -> (ok, t + 1, d + o.Strategy.degraded)
                | Some o -> (ok + 1, t, d + o.Strategy.degraded)
                | None -> (ok, t, d))
              (0, 0, 0) applicable
          in
          let retried =
            List.fold_left
              (fun acc (c : Runner.cell) -> acc + max 0 (c.Runner.attempts - 1))
              0 applicable
          in
          let quarantined =
            List.length
              (List.filter (fun (c : Runner.cell) -> c.Runner.error <> None) applicable)
          in
          [ r.Runner.strategy;
            string_of_int (List.length applicable);
            string_of_int ok;
            string_of_int timeouts;
            string_of_int degraded;
            string_of_int retried;
            string_of_int quarantined ])
        rows
    in
    let sum i =
      List.fold_left (fun acc row -> acc + int_of_string (List.nth row i)) 0 survival
    in
    let cells = sum 1 and ok = sum 2 and timeouts = sum 3 in
    let quarantined = sum 6 in
    let counter n =
      int_of_float (Metric.Counter.value (Ctx.counter profile.ctx n))
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (* No jobs (or any wall-clock number) in the report: it must be
         byte-identical across --jobs settings. *)
      (Printf.sprintf
         "Chaos run: %s under faults [%s] (seed %d, retries %d%s)\n\n"
         w.Workload.name
         (Fault.spec_to_string faults)
         profile.seed retries
         (match cell_deadline with
         | None -> ""
         | Some s -> Printf.sprintf ", deadline %gs" s));
    Buffer.add_string buf
      (Report.table ~title:"Survival by implementation"
         ~header:
           [ "Implementation"; "Cells"; "OK"; "TO"; "Degraded"; "Retried";
             "Quarantined" ]
         survival);
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Report.agg_table ~title:"Costs under chaos (quarantined cells excluded)"
         ~budget
         (List.map (Runner.aggregate ~budget) rows));
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf
         "Survived %d/%d cells (%d completed, %d timed out, %d quarantined)\n"
         (ok + timeouts) cells ok timeouts quarantined);
    Buffer.add_string buf
      (Printf.sprintf
         "Counters: fault.injected=%d driver.degraded=%d runner.retries=%d \
          runner.quarantined=%d\n"
         (counter "fault.injected") (counter "driver.degraded")
         (counter "runner.retries") (counter "runner.quarantined"));
    Ctx.flush profile.ctx;
    Ok (Buffer.contents buf)

(* Runs one experiment under an "experiment" span (so Perfetto traces
   and span breakdowns group whole tables) and counts it, flushing any
   Jsonl trace sink when the table is done. *)
let run profile ~id fn =
  let out =
    Ctx.with_span profile.ctx "experiment" ~attrs:[ ("id", Span.Str id) ]
    @@ fun _span ->
    Metric.Counter.inc (Ctx.counter profile.ctx "harness.experiments");
    fn profile
  in
  Ctx.flush profile.ctx;
  out

let all =
  [ ("table1", "Sec 2.3 cardinality scenarios", fun _ -> table1 ());
    ("figure1", "the example MDP's strategy costs", fun _ -> figure1 ());
    ("figure2", "prior densities", fun _ -> figure2 ());
    ("table2", "priors x TPC-H skews", table2);
    ("table3", "IMDB benchmark", fun p -> let t, _, _ = tables3_4_5 p in t);
    ("table4", "IMDB relative to Postgres", fun p -> let _, t, _ = tables3_4_5 p in t);
    ("table5", "20 most expensive IMDB queries", fun p -> let _, _, t = tables3_4_5 p in t);
    ("table6", "Optimizer Torture Tests", table6);
    ("table7", "UDF benchmark", fun p -> fst (table7_figure3 p));
    ("figure3", "per-query UDF costs", fun p -> snd (table7_figure3 p));
    ("table8", "Monsoon component breakdown", table8);
    ("warmstart", "cold vs warm repeated workload (statistics repository)",
     fun p -> warmstart p);
    ("ablation-selection", "UCT vs eps-greedy", ablation_selection);
    ("ablation-iterations", "MCTS iteration sweep", ablation_iterations);
    ("ablation-prior", "spike-and-slab vs slab-only", ablation_prior_spikes);
    ("ablation-lec", "multi-step vs least-expected-cost", ablation_lec) ]
