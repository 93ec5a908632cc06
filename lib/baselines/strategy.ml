open Monsoon_util
open Monsoon_storage
open Monsoon_relalg
open Monsoon_exec
open Monsoon_telemetry
module Driver = Monsoon_core.Driver
module Stats_repo = Monsoon_stats_repo.Stats_repo

type outcome = {
  cost : float;
  timed_out : bool;
  wall : float;
  plan_time : float;
  stats_cost : float;
  result_card : float;
  degraded : int;
  plan : string;
}

type t = {
  name : string;
  applicable : Query.t -> bool;
  run :
    ?env:Env.t -> rng:Rng.t -> budget:float -> Catalog.t -> Query.t -> outcome;
}

let always_applicable _ = true

(* Execute a chosen plan, charging [stats_cost] up front against the
   budget. An expired deadline is a timeout; an injected fault propagates
   (plan-once strategies have no alternative plan — the harness retries the
   whole cell). *)
let execute_plan ?env ~t0 ~plan_time ~stats_cost ~budget
    catalog q plan =
  let bud = Executor.budget (budget -. stats_cost) in
  let exec = Executor.create ?env catalog q bud in
  let timed_out_outcome () =
    { cost = budget;
      timed_out = true;
      wall = Timer.now () -. t0;
      plan_time;
      stats_cost;
      result_card = 0.0;
      degraded = 0;
      plan = Expr.describe q plan }
  in
  match Executor.execute exec plan with
  | exception Executor.Timeout -> timed_out_outcome ()
  | exception Deadline.Expired -> timed_out_outcome ()
  | cost ->
    let result_card =
      match Executor.materialized exec (Query.all_mask q) with
      | Some inter -> float_of_int (Intermediate.cardinality inter)
      | None -> 0.0
    in
    { cost = cost +. stats_cost;
      timed_out = false;
      wall = Timer.now () -. t0;
      plan_time;
      stats_cost;
      result_card;
      degraded = 0;
      plan = Expr.describe q plan }

(* A plan-once strategy: build a statistics source, run the DP, execute. *)
let classical name ~applicable source =
  { name;
    applicable;
    run =
      (fun ?env ~rng ~budget catalog q ->
        let t0 = Timer.now () in
        let (src : Stats_source.t), src_time =
          Timer.time (fun () -> source rng catalog q)
        in
        let plan, dp_time = Timer.time (fun () -> Planner.best_plan q src.Stats_source.env) in
        execute_plan ?env ~t0 ~plan_time:(src_time +. dp_time)
          ~stats_cost:src.Stats_source.acquisition_cost ~budget catalog q plan) }

let postgres =
  classical "Postgres"
    ~applicable:(fun q -> not (Stats_source.has_multi_instance_terms q))
    (fun _rng catalog q -> Stats_source.exact catalog q)

let defaults =
  classical "Defaults" ~applicable:always_applicable (fun _rng catalog q ->
      Stats_source.defaults catalog q)

(* On-Demand cannot handle multi-instance UDFs without materializing cross
   products; the paper drops it there. *)
let on_demand =
  classical "On Demand"
    ~applicable:(fun q -> not (Stats_source.has_multi_instance_terms q))
    (fun _rng catalog q -> Stats_source.on_demand catalog q)

let sampling =
  classical "Sampling" ~applicable:always_applicable (fun rng catalog q ->
      Stats_source.sampling rng catalog q)

(* Greedy (paper Sec 6.2.2): start from the smallest instance; repeatedly
   attach the smallest not-yet-joined instance that avoids a cross product
   (unless a cross product is unavoidable). Left-deep; uses only set
   sizes. *)
let greedy_plan catalog q =
  let n = Query.n_rels q in
  let size i =
    Table.cardinality (Catalog.find catalog (Query.rel_by_id q i).Query.table)
  in
  let by_size = List.sort (fun a b -> compare (size a) (size b)) (List.init n Fun.id) in
  match by_size with
  | [] -> invalid_arg "greedy: empty query"
  | first :: _ ->
    let rec go acc mask remaining =
      if remaining = [] then acc
      else begin
        let connected =
          List.filter (fun i -> Query.connected q mask (Relset.singleton i)) remaining
        in
        let pool = if connected <> [] then connected else remaining in
        let next = List.hd pool (* pools keep the by-size order *) in
        go (Expr.join acc (Expr.base next))
          (Relset.add next mask)
          (List.filter (fun j -> j <> next) remaining)
      end
    in
    go (Expr.base first) (Relset.singleton first)
      (List.filter (fun j -> j <> first) by_size)

let greedy =
  { name = "Greedy";
    applicable = always_applicable;
    run =
      (fun ?env ~rng:_ ~budget catalog q ->
        let t0 = Timer.now () in
        let plan, plan_time = Timer.time (fun () -> greedy_plan catalog q) in
        execute_plan ?env ~t0 ~plan_time ~stats_cost:0.0
          ~budget catalog q plan) }

let skinner =
  { name = "SkinnerDB";
    applicable = always_applicable;
    run =
      (fun ?(env = Env.default) ~rng ~budget catalog q ->
        let t0 = Timer.now () in
        (* Skinner ignores the telemetry slot, as before. *)
        let env = Env.with_ctx env Env.Null_ctx in
        let out =
          Skinner.run ~env (Skinner.default_config ~rng) ~budget catalog q
        in
        { cost = out.Skinner.cost;
          timed_out = out.Skinner.timed_out;
          wall = Timer.now () -. t0;
          plan_time = 0.0;
          stats_cost = 0.0;
          result_card = out.Skinner.result_card;
          degraded = 0;
          plan = Printf.sprintf "%d episodes" out.Skinner.episodes }) }

let monsoon_config ?(iterations = 2000) ?(scale_with_size = true)
    ?(selection = Monsoon_mcts.Mcts.Uct (sqrt 2.0)) prior
    ~rng ~budget q =
  (* MCTS effort scales with the size of the join-order problem: the
     action space roughly squares with the instance count. *)
  let iterations =
    if not scale_with_size then iterations
    else if Query.n_rels q >= 7 then iterations * 3
    else if Query.n_rels q >= 6 then iterations * 2
    else iterations
  in
  { Driver.prior;
    prior_of = None;
    known_distincts = [];
    mcts =
      { (Monsoon_mcts.Mcts.default_config ~rng) with
        Monsoon_mcts.Mcts.iterations;
        selection };
    budget;
    max_steps = 200 }

(* One run of a [monsoon_config] against the statistics repository.
   Before it, the warm-start ladder resolves every interesting term, in
   term order, into the config: a Known answer becomes a known distinct
   (the MDP prunes its Σ action), a Hint answer a per-term prior. After
   it, what the run measured is flushed. With no answers the config is
   untouched, so an empty repository leaves the run byte-identical to a
   repository-free one. *)
let run_on_repo repo ?env config catalog q =
  let tel = Ctx.of_env (Option.value env ~default:Env.default) in
  let lookups = Ctx.counter tel "repo.lookups" in
  let hits = Ctx.counter tel "repo.hits" in
  let known, hints =
    List.fold_left
      (fun (known, hints) (tm : Term.t) ->
        Metric.Counter.inc lookups;
        match Stats_repo.lookup_distinct repo ~query:q ~term:tm with
        | Stats_repo.Cold -> (known, hints)
        | Stats_repo.Known d ->
          Metric.Counter.inc hits;
          ((tm.Term.id, d) :: known, hints)
        | Stats_repo.Hint p ->
          Metric.Counter.inc hits;
          (known, (tm.Term.id, p) :: hints))
      ([], [])
      (Query.interesting_terms q (Query.all_mask q))
  in
  if known <> [] then
    Metric.Counter.add
      (Ctx.counter tel "repo.warm_starts")
      (float_of_int (List.length known));
  let config =
    { config with
      Driver.known_distincts = List.rev known;
      prior_of =
        (match hints with
        | [] -> None
        | hints ->
          Some
            (fun tid ->
              match List.assoc_opt tid hints with
              | Some p -> p
              | None -> config.Driver.prior)) }
  in
  let out = Driver.run ?env config catalog q in
  let wrote, failed =
    Stats_repo.flush_query repo ~query:q ~counts:out.Driver.measured_counts
      ~distincts:out.Driver.measured_distincts
      ~udf:out.Driver.udf_observations
  in
  Metric.Counter.inc (Ctx.counter tel "repo.flushes");
  Metric.Counter.add
    (Ctx.counter tel "repo.entries_written")
    (float_of_int wrote);
  if failed > 0 then
    Metric.Counter.add
      (Ctx.counter tel "repo.lines_failed")
      (float_of_int failed);
  out

let monsoon ?iterations ?scale_with_size ?selection ?stats_repo prior =
  { name = "Monsoon";
    applicable = always_applicable;
    run =
      (fun ?env ~rng ~budget catalog q ->
        let config =
          monsoon_config ?iterations ?scale_with_size ?selection prior ~rng
            ~budget q
        in
        let out =
          match stats_repo with
          | None -> Driver.run ?env config catalog q
          | Some repo -> run_on_repo repo ?env config catalog q
        in
        { cost = out.Driver.cost;
          timed_out = out.Driver.timed_out;
          wall = out.Driver.wall;
          plan_time = out.Driver.mcts_time;
          stats_cost = out.Driver.stats_cost;
          result_card = out.Driver.result_card;
          degraded = out.Driver.degraded;
          plan = String.concat " | " out.Driver.actions }) }

let fixed_plan ~name plan_of =
  { name;
    applicable = always_applicable;
    run =
      (fun ?env ~rng:_ ~budget catalog q ->
        let t0 = Timer.now () in
        execute_plan ?env ~t0 ~plan_time:0.0 ~stats_cost:0.0
          ~budget catalog q (plan_of q)) }

let standard_seven prior =
  [ postgres; defaults; greedy; monsoon prior; on_demand; sampling; skinner ]
