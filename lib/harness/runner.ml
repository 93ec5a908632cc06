open Monsoon_util
open Monsoon_baselines
open Monsoon_workloads
open Monsoon_telemetry

type config = {
  budget : float;
  seed : int;
  queries : string list option;
  jobs : int;
  faults : Fault.spec option;
  retries : int;
  cell_deadline : float option;
  qlog : Qlog.t option;
}

let default_config =
  { budget = 5e7;
    seed = 42;
    queries = None;
    jobs = 1;
    faults = None;
    retries = 2;
    cell_deadline = None;
    qlog = None }

(* A fresh deterministic stream per (strategy, query) cell. The split
   decouples the stream from the raw hash seed, and — because each cell's
   rng derives only from (seed, strategy, query) — makes the suite's
   results independent of the order and the parallelism cells run with. *)
let cell_rng ~seed ~strategy ~query =
  Rng.split (Rng.create (Hashtbl.hash (seed, strategy, query)))

(* Retry attempts re-derive the stream from a salted seed, so attempt k is
   deterministic too but explores a different trajectory than the one that
   faulted. Attempt 0 is exactly [cell_rng] — a fault-free run is untouched
   by the retry machinery. *)
let attempt_rng ~seed ~strategy ~query ~attempt =
  if attempt = 0 then cell_rng ~seed ~strategy ~query
  else cell_rng ~seed:(Hashtbl.hash (seed, attempt)) ~strategy ~query

(* Deterministic backoff before retry [k] (k ≥ 1): fixed exponential
   schedule, no jitter — chaos runs must be reproducible. *)
let backoff_seconds k = 0.01 *. (2.0 ** float_of_int (k - 1))

type cell = {
  query : string;
  outcome : Strategy.outcome option;
  error : string option;
  attempts : int;
}

type row = { strategy : string; cells : cell list }

let selected_queries config (w : Workload.t) =
  match config.queries with
  | None -> w.Workload.queries
  | Some names ->
    List.map (fun n -> (n, Workload.find_query w n)) names

let run_suite ?(env = Monsoon_util.Env.default) config strategies
    (w : Workload.t) =
  let tel = Ctx.of_env env in
  (* The environment's deadline is the suite-level cancellation token;
     per-cell deadlines come from [config.cell_deadline] and per-cell fault
     plans from [config.faults], so both stay derivable from the cell tuple
     alone (determinism and jobs-invariance). *)
  let cancel = Env.deadline env in
  let queries = selected_queries config w in
  let c_cells = Ctx.counter tel "runner.cells" in
  let c_retries = Ctx.counter tel "runner.retries" in
  let c_quarantined = Ctx.counter tel "runner.quarantined" in
  (* Cells are strategy-major; a cell's index is its place in that order. *)
  let tasks =
    List.concat_map
      (fun (s : Strategy.t) -> List.map (fun (qn, q) -> (s, qn, q)) queries)
      strategies
    |> List.mapi (fun i (s, qn, q) -> (i, s, qn, q))
  in
  (* Qlog records reach the file in cell order, whatever order the cells
     finish in: a cell's records wait in [pending] until every earlier
     cell has committed, and whatever still waits when the suite ends
     (cells a cancelled suite never ran leave gaps) is written then, in
     order. *)
  let n_tasks = List.length tasks in
  let pending = Array.make n_tasks None in
  let committed = ref 0 in
  let lock = Mutex.create () in
  let write = function
    | None -> ()
    | Some records ->
      Option.iter
        (fun qlog ->
          List.iter
            (fun r ->
              if not (Qlog.append qlog r) then
                Metric.Counter.inc (Ctx.counter tel "qlog.lines_failed"))
            records)
        config.qlog
  in
  let commit i records =
    Mutex.protect lock (fun () ->
        pending.(i) <- Some records;
        while !committed < n_tasks && Option.is_some pending.(!committed) do
          write pending.(!committed);
          pending.(!committed) <- None;
          incr committed
        done)
  in
  let commit_rest () =
    Mutex.protect lock (fun () ->
        for i = !committed to n_tasks - 1 do
          write pending.(i);
          pending.(i) <- None
        done;
        committed := n_tasks)
  in
  let run_cell (i, (s : Strategy.t), qname, q) =
    if not (s.Strategy.applicable q) then begin
      commit i [];
      Metric.Counter.inc c_cells;
      { query = qname; outcome = None; error = None; attempts = 0 }
    end
    else begin
      (* One qlog record per attempt, under a trace id derived from the same
         tuple the attempt RNG derives from — so two fixed-seed runs mint
         identical trace ids and their qlogs diff byte-stably. The cell's
         records, newest first, are committed when it ends. *)
      let trace_for k =
        Printf.sprintf "r-%08x"
          (Hashtbl.hash (config.seed, s.Strategy.name, qname, k)
          land 0xffffffff)
      in
      let records = ref [] in
      let qlog_append ~trace ~outcome ?(detail = "") ?(latency = 0.0) ?cost
          ?result_card ?plan events =
        if Option.is_some config.qlog then
          records :=
            Qlog.of_events ~trace ~query:qname ~strategy:s.Strategy.name
              ~outcome ~latency ~queue_wait:0.0 ?cost ?result_card ?plan
              ~detail events
            :: !records
      in
      let run_attempt k =
        let rng =
          attempt_rng ~seed:config.seed ~strategy:s.Strategy.name ~query:qname
            ~attempt:k
        in
        (* The plan draws from a split of a *copy* of the cell stream: the
           strategy's own stream is untouched, so a rate-0 plan (or no plan)
           leaves every drawn number — and hence every result — identical. *)
        let fault =
          match config.faults with
          | None -> Fault.disabled
          | Some spec -> Fault.plan spec (Rng.split (Rng.copy rng))
        in
        let deadline =
          match config.cell_deadline with
          | None -> Deadline.none
          | Some s -> Deadline.after s
        in
        let trace = trace_for k in
        (* With no qlog the context is passed through untouched — the
           audit path must leave an unaudited run byte-identical. The
           recorder attachment itself never perturbs the strategy's RNG
           (the driver records unconditionally). *)
        let recorder, tel_attempt =
          match config.qlog with
          | None -> (None, tel)
          | Some _ ->
            let r = Recorder.create () in
            (Some r, Ctx.with_trace_id (Ctx.with_recorder tel r) trace)
        in
        let events () =
          match recorder with None -> [] | Some r -> Recorder.events r
        in
        Ctx.with_span tel_attempt "query"
          ~attrs:
            [ ("strategy", Span.Str s.Strategy.name);
              ("query", Span.Str qname);
              ("attempt", Span.Int k) ]
        @@ fun span ->
        let env_attempt =
          Env.with_deadline
            (Env.with_fault (Ctx.to_env tel_attempt) fault)
            deadline
        in
        let o =
          match
            s.Strategy.run ~env:env_attempt ~rng ~budget:config.budget
              w.Workload.catalog q
          with
          | o -> o
          | exception Deadline.Expired ->
            qlog_append ~trace ~outcome:"timeout" ~detail:"deadline expired"
              (events ());
            raise Deadline.Expired
          | exception Fault.Injected reason ->
            qlog_append ~trace ~outcome:"error" ~detail:reason (events ());
            raise (Fault.Injected reason)
        in
        qlog_append ~trace
          ~outcome:
            (if o.Strategy.timed_out then "timeout"
             else if o.Strategy.degraded > 0 then "degraded"
             else "ok")
          ~latency:o.Strategy.wall ~cost:o.Strategy.cost
          ~result_card:o.Strategy.result_card ~plan:o.Strategy.plan
          (events ());
        Span.set_attr span "cost" (Span.Float o.Strategy.cost);
        Span.set_attr span "timed_out" (Span.Bool o.Strategy.timed_out);
        o
      in
      let rec attempt k =
        match run_attempt k with
        | o -> { query = qname; outcome = Some o; error = None; attempts = k + 1 }
        | exception Deadline.Expired ->
          (* A deadline that escapes the strategy is a timeout, not a fault:
             retrying a too-slow cell would just time out again. *)
          { query = qname;
            outcome =
              Some
                { Strategy.cost = config.budget;
                  timed_out = true;
                  wall = 0.0;
                  plan_time = 0.0;
                  stats_cost = 0.0;
                  result_card = 0.0;
                  degraded = 0;
                  plan = "(abandoned: deadline expired)" };
            error = None;
            attempts = k + 1 }
        | exception Fault.Injected reason ->
          if k < config.retries then begin
            Metric.Counter.inc c_retries;
            Unix.sleepf (backoff_seconds (k + 1));
            attempt (k + 1)
          end
          else begin
            Metric.Counter.inc c_quarantined;
            { query = qname;
              outcome = None;
              error = Some reason;
              attempts = k + 1 }
          end
      in
      let cell =
        Fun.protect
          ~finally:(fun () -> commit i (List.rev !records))
          (fun () -> attempt 0)
      in
      Metric.Counter.inc c_cells;
      cell
    end
  in
  (* Cells are independent (catalog and queries are read-only during runs,
     every per-cell rng is derived above), so the flattened strategy-major
     cell list can fan out across a domain pool. Sequential and parallel
     runs produce the same cells in the same order, and the same qlog. *)
  Metric.Gauge.set
    (Ctx.gauge tel "runner.cells_expected")
    (float_of_int n_tasks);
  Fun.protect ~finally:commit_rest @@ fun () ->
  let cells =
    if config.jobs = 1 then
      List.map
        (fun task ->
          Deadline.check cancel;
          run_cell task)
        tasks
    else begin
      let n = if config.jobs < 1 then Pool.default_jobs () else config.jobs in
      let g_queued = Ctx.gauge tel "pool.queued" in
      let g_in_flight = Ctx.gauge tel "pool.in_flight" in
      let g_completed = Ctx.gauge tel "pool.completed" in
      let g_respawned = Ctx.gauge tel "pool.respawned" in
      Pool.with_pool n (fun pool ->
          (* Export pool occupancy at cell boundaries so /metrics tracks
             progress without a hot-path hook inside the pool itself. *)
          let export () =
            let st = Pool.stats pool in
            Metric.Gauge.set g_queued (float_of_int st.Pool.queued);
            Metric.Gauge.set g_in_flight (float_of_int st.Pool.in_flight);
            Metric.Gauge.set g_completed (float_of_int st.Pool.completed);
            Metric.Gauge.set g_respawned (float_of_int (Pool.respawned pool))
          in
          (* Worker kills from the fault spec land here: each token makes
             one worker die between cells and respawn a replacement, so the
             suite exercises worker churn without losing a cell. *)
          (match config.faults with
          | Some spec when spec.Fault.worker_kills > 0 ->
            Pool.inject_kills pool spec.Fault.worker_kills
          | _ -> ());
          let out =
            Pool.map ~cancel pool
              (fun task ->
                export ();
                let cell = run_cell task in
                export ();
                cell)
              tasks
          in
          export ();
          out)
    end
  in
  let per_row = List.length queries in
  let rec chunk cells strategies =
    match strategies with
    | [] -> []
    | (s : Strategy.t) :: rest ->
      let row_cells = List.filteri (fun i _ -> i < per_row) cells in
      let remainder = List.filteri (fun i _ -> i >= per_row) cells in
      { strategy = s.Strategy.name; cells = row_cells } :: chunk remainder rest
  in
  chunk cells strategies

type agg = {
  agg_name : string;
  timeouts : int;
  mean : float option;
  median : float;
  max_ : float option;
  n : int;
  errors : int;
}

let aggregate ~budget row =
  let outcomes = List.filter_map (fun c -> c.outcome) row.cells in
  let n = List.length outcomes in
  let errors =
    List.length (List.filter (fun c -> c.error <> None) row.cells)
  in
  let timeouts = List.length (List.filter (fun o -> o.Strategy.timed_out) outcomes) in
  let costs =
    Array.of_list
      (List.map
         (fun o -> if o.Strategy.timed_out then budget else o.Strategy.cost)
         outcomes)
  in
  let mean =
    if timeouts > 0 || n = 0 then None else Some (Dist.mean costs)
  in
  let median = if n = 0 then 0.0 else Dist.median costs in
  let max_ =
    if timeouts > 0 then None
    else if n = 0 then Some 0.0
    else Some (Array.fold_left Float.max 0.0 costs)
  in
  { agg_name = row.strategy; timeouts; mean; median; max_; n; errors }

let cost_by_query row =
  List.filter_map
    (fun c ->
      match c.outcome with
      | Some o -> Some (c.query, o)
      | None -> None)
    row.cells

let relative_buckets ~baseline row =
  let base = cost_by_query baseline in
  let low = ref 0 and mid = ref 0 and high = ref 0 in
  let n = ref 0 in
  List.iter
    (fun c ->
      match c.outcome with
      | None -> ()
      | Some o -> (
        match List.assoc_opt c.query base with
        | None -> ()
        | Some b ->
          incr n;
          if o.Strategy.timed_out then incr high
          else begin
            let ratio = (o.Strategy.cost +. 1.0) /. (b.Strategy.cost +. 1.0) in
            if ratio < 0.9 then incr low
            else if ratio < 1.1 then incr mid
            else incr high
          end))
    row.cells;
  let f x = 100.0 *. float_of_int x /. float_of_int (max 1 !n) in
  (f !low, f !mid, f !high)

let top_k_by ~baseline ~k =
  let costs =
    List.filter_map
      (fun c ->
        match c.outcome with
        | Some o -> Some (c.query, o.Strategy.cost)
        | None -> None)
      baseline.cells
  in
  List.sort (fun (_, a) (_, b) -> compare b a) costs
  |> List.filteri (fun i _ -> i < k)
  |> List.map fst

let filter_queries row names =
  { row with cells = List.filter (fun c -> List.mem c.query names) row.cells }
