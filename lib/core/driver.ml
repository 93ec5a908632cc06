open Monsoon_util
open Monsoon_relalg
open Monsoon_stats
open Monsoon_exec
open Monsoon_telemetry

type config = {
  prior : Prior.t;
  prior_of : (int -> Prior.t) option;
  known_distincts : (int * float) list;
  mcts : Monsoon_mcts.Mcts.config;
  budget : float;
  max_steps : int;
}

let default_config ~rng =
  { prior = Prior.spike_and_slab;
    prior_of = None;
    known_distincts = [];
    mcts = Monsoon_mcts.Mcts.default_config ~rng;
    budget = 5e7;
    max_steps = 200 }

type outcome = {
  cost : float;
  timed_out : bool;
  wall : float;
  mcts_time : float;
  stats_cost : float;
  exec_cost : float;
  executes : int;
  degraded : int;
  actions : string list;
  result_card : float;
  measured_counts : (Relset.t * float) list;
  measured_distincts : (int * float) list;
  udf_observations : (int * float * float) list;
}

(* The recorder's name for a state: the hex MD5 of its binary key, which
   JSON and the text reports can carry. *)
let state_id state = Digest.to_hex (Digest.string (Mdp.state_key state))

let selection_name = function
  | Monsoon_mcts.Mcts.Uct w -> Printf.sprintf "uct(w=%.3g)" w
  | Monsoon_mcts.Mcts.Epsilon_greedy -> "eps-greedy"

(* Fold the completed nodes of one EXECUTE call into the real statistics
   set, mirroring each hardened statistic into the flight recorder. Counts
   go newest node first, then distincts newest Σ first with each pass's
   terms in order; this write order decides which value a term measured
   twice keeps. [replaced] counts the writes that overwrite a different
   measured value, from this call or an earlier one. *)
let absorb_nodes ~recorder ~replaced ~step query stats
    (nodes : Executor.node list) =
  let hardened subject pretty value =
    if Recorder.enabled recorder then
      Recorder.record recorder
        (Recorder.Stat_observed { step; subject; pretty = pretty (); value })
  in
  let newest_first =
    List.rev (List.filter (fun (n : Executor.node) -> n.Executor.complete) nodes)
  in
  List.iter
    (fun (n : Executor.node) ->
      match n.Executor.expr with
      | Expr.Stats _ -> ()
      | e ->
        let m = Expr.mask e in
        Stats_catalog.set_count stats m n.Executor.rows;
        hardened (Recorder.Count m)
          (fun () -> Expr.describe query (Expr.leaf m))
          n.Executor.rows)
    newest_first;
  List.iter
    (fun (n : Executor.node) ->
      List.iter
        (fun (tm, d) ->
          (if Stats_catalog.has_measurement stats ~term:tm then
             match Stats_catalog.distinct stats ~term:tm ~pred:None with
             | Some old when not (Float.equal old d) ->
               Metric.Counter.add replaced 1.0
             | _ -> ());
          Stats_catalog.set_distinct stats ~term:tm
            ~scope:Stats_catalog.Wildcard d;
          hardened (Recorder.Distinct tm)
            (fun () -> Term.describe (Query.term query tm))
            d)
        n.Executor.distincts)
    newest_first

(* Pre-order flight-recorder rows for the plans of one EXECUTE, given the
   node records of all its calls. Observed cardinalities are the
   statistics catalog's, which holds what the step's returned calls
   absorbed: a completed child of a call that then died keeps its profile
   but shows no observed count. Predictions come from the plan-time
   [Simulator.predict_counts] pass; a mask whose count was already
   measured at plan time has no prediction and hence no q-error. Each
   operator profile attaches once, to the first occurrence in plan order;
   a later occurrence was a cache hit and keeps its row without one. *)
let exec_nodes query stats ~predictions ~nodes plans =
  let unclaimed = ref nodes in
  let claim e =
    match
      List.partition (fun (n : Executor.node) -> Expr.equal n.Executor.expr e)
        !unclaimed
    with
    | [], _ -> None
    | n :: _, rest ->
      unclaimed := rest;
      n.Executor.profile
  in
  let rec go depth e acc =
    match e with
    | Expr.Stats { inner; _ } ->
      (* Σ passes take no part in the prediction/observation join, but a
         profiled run still gets their operator row — without a profile
         the walk stays exactly as before, so unprofiled records are
         byte-identical to older ones. *)
      let acc =
        match claim e with
        | None -> acc
        | Some p ->
          { Recorder.node_expr = Expr.describe query e;
            node_mask = Expr.mask e;
            node_depth = depth;
            node_predicted = None;
            node_observed = Some p.Recorder.p_rows_out;
            node_q_error = None;
            node_profile = Some p }
          :: acc
      in
      go depth inner acc
    | Expr.Leaf _ | Expr.Join _ ->
      let m = Expr.mask e in
      let observed = Stats_catalog.count stats m in
      let predicted = List.assoc_opt m predictions in
      let q_error =
        match (predicted, observed) with
        | Some p, Some o -> Some (Recorder.q_error ~predicted:p ~observed:o)
        | _ -> None
      in
      let node =
        { Recorder.node_expr = Expr.describe query e;
          node_mask = m;
          node_depth = depth;
          node_predicted = predicted;
          node_observed = observed;
          node_q_error = q_error;
          node_profile = claim e }
      in
      let acc = node :: acc in
      (match e with
      | Expr.Join { left = a; right = b; _ } -> go (depth + 1) b (go (depth + 1) a acc)
      | _ -> acc)
  in
  List.concat_map (fun e -> List.rev (go 0 e [])) plans

(* What one EXECUTE step came to: the cost charged and the plan rows, the
   rows of a budget death, an expired deadline, or the fault class. *)
type step_result =
  | Ran of float * Recorder.exec_node list
  | Budget_out of Recorder.exec_node list
  | Expired
  | Faulted of string

(* A registry counter for dashboards, paired with a private per-run total
   that the outcome reads: concurrent runs on one context (the parallel
   harness) cannot bleed into each other's outcomes. *)
type tally = { counter : Metric.Counter.t; mutable total : float }

let tally tel name = { counter = Ctx.counter tel name; total = 0.0 }

let bump ?(by = 1.0) t =
  Metric.Counter.add t.counter by;
  t.total <- t.total +. by

let run ?(profile = Profile.disabled) ?(env = Env.default) config catalog
    query =
  let tel = Ctx.of_env env in
  let env = Ctx.to_env ~env tel in
  let deadline = Env.deadline env in
  let recorder = Ctx.recorder tel in
  let mcts_seconds = tally tel "driver.mcts_seconds" in
  let replans = tally tel "driver.replans" in
  let executes = tally tel "driver.executes" in
  let steps_taken = tally tel "driver.steps" in
  let degraded = tally tel "driver.degraded" in
  let replaced = Ctx.counter tel "driver.distincts_replaced" in
  let h_qerr = Ctx.histogram tel "driver.q_error" in
  let h_replans = Ctx.histogram tel "driver.replans_per_query" in
  Ctx.with_span tel "driver.run"
    ~attrs:[ ("query", Span.Str (Query.name query)) ]
  @@ fun run_span ->
  let t0 = Timer.now () in
  let ctx = Mdp.make_ctx catalog query in
  let exec =
    Executor.create ~profile ~env catalog query (Executor.budget config.budget)
  in
  (* The cell deadline also bounds the planner, unless the caller already
     set a tighter one on the MCTS config itself. *)
  let mcts_cfg =
    if Deadline.is_none config.mcts.Monsoon_mcts.Mcts.deadline then
      { config.mcts with Monsoon_mcts.Mcts.deadline }
    else config.mcts
  in
  let total_cost = ref 0.0 in
  let trace = ref [] in
  (* Every call's UDF observations, failed calls included, newest first. *)
  let rev_udf = ref [] in
  let finish ~timed_out state =
    let result_card =
      if timed_out then 0.0
      else
        match Executor.materialized exec (Query.all_mask query) with
        | Some inter -> float_of_int (Intermediate.cardinality inter)
        | None -> 0.0
    in
    let stats_cost = Executor.sigma_objects exec in
    let n_executes = int_of_float executes.total in
    Metric.Histogram.observe h_replans replans.total;
    Recorder.record recorder
      (Recorder.Query_finish
         { steps = int_of_float steps_taken.total;
           cost = !total_cost;
           timed_out;
           result_card });
    Span.set_attr run_span "timed_out" (Span.Bool timed_out);
    Span.set_attr run_span "cost" (Span.Float !total_cost);
    Span.set_attr run_span "executes" (Span.Int n_executes);
    { cost = !total_cost;
      timed_out;
      wall = Timer.now () -. t0;
      mcts_time = mcts_seconds.total;
      stats_cost;
      exec_cost = !total_cost -. stats_cost;
      executes = n_executes;
      degraded = int_of_float degraded.total;
      actions = List.rev !trace;
      result_card;
      measured_counts = Stats_catalog.counts state.Mdp.stats;
      (* A known distinct is a seed, not a measurement. *)
      measured_distincts =
        List.filter_map
          (fun (tm, scope, d) ->
            match scope with
            | Stats_catalog.Wildcard
              when not (List.mem_assoc tm config.known_distincts) ->
              Some (tm, d)
            | _ -> None)
          (Stats_catalog.distincts state.Mdp.stats);
      udf_observations = List.rev !rev_udf }
  in
  (* The one place plans run: execute [plans] in order, folding each
     returned call's node records into [stats]; mid-plan death keeps what
     completed before it in S. A faulted call's completed nodes are folded
     in too: they stay cached, so the degraded fallback reuses them without
     measuring. Each attempt collects its own records, so a faulted
     attempt's profiles never reach the fallback's event. *)
  let execute_step ~span ~attrs ~step ~predictions stats plans =
    let ran = ref [] in
    let collect () =
      let nodes = Executor.nodes exec in
      ran := !ran @ nodes;
      rev_udf :=
        List.rev_append
          (List.concat_map (fun (n : Executor.node) -> n.Executor.udf) nodes)
          !rev_udf
    in
    let call e =
      match Fun.protect ~finally:collect (fun () -> Executor.execute exec e) with
      | cost ->
        absorb_nodes ~recorder ~replaced ~step query stats
          (Executor.nodes exec);
        cost
      | exception (Fault.Injected _ as ex) ->
        absorb_nodes ~recorder ~replaced ~step query stats
          (Executor.nodes exec);
        raise ex
    in
    let nodes () = exec_nodes query stats ~predictions ~nodes:!ran plans in
    match
      Ctx.with_span tel span ~attrs @@ fun _ ->
      List.fold_left (fun acc e -> acc +. call e) 0.0 plans
    with
    | cost -> Ran (cost, nodes ())
    | exception Executor.Timeout -> Budget_out (nodes ())
    | exception Deadline.Expired -> Expired
    | exception Fault.Injected reason -> Faulted reason
  in
  (* Settle a step: record it, charge its cost, and return the state to
     continue from — [None] when the run ends timed out. A fault walks the
     degradation ladder: the classical left-deep plan over all instances
     replaces the planned one (it reuses every intermediate the executor
     already cached); if that faults too, the run re-raises and the
     harness retries the whole cell. *)
  let rec settle ~step ~where ~predictions state = function
    | Ran (cost, nodes) ->
      total_cost := !total_cost +. cost;
      List.iter
        (fun (n : Recorder.exec_node) ->
          Option.iter (Metric.Histogram.observe h_qerr) n.Recorder.node_q_error)
        nodes;
      Recorder.record recorder
        (Recorder.Executed { step; nodes; cost; timed_out = false });
      Some (Mdp.after_execute state state.Mdp.stats)
    | Budget_out nodes ->
      Recorder.record recorder
        (Recorder.Executed { step; nodes; cost = 0.0; timed_out = true });
      None
    | Expired ->
      Recorder.record recorder
        (Recorder.Note { step; message = "deadline expired " ^ where });
      None
    | Faulted reason -> (
      bump degraded;
      let fallback =
        List.fold_left
          (fun acc i -> Expr.join acc (Expr.base i))
          (Expr.base 0)
          (List.init (Query.n_rels query - 1) (fun i -> i + 1))
      in
      Recorder.record recorder
        (Recorder.Degraded
           { step; reason; fallback = Expr.describe query fallback });
      match
        execute_step ~span:"driver.degrade"
          ~attrs:[ ("step", Span.Int step); ("reason", Span.Str reason) ]
          ~step ~predictions state.Mdp.stats [ fallback ]
      with
      | Faulted again ->
        Recorder.record recorder
          (Recorder.Note
             { step; message = "fallback plan also faulted: " ^ again });
        raise (Fault.Injected again)
      | result ->
        settle ~step ~where:"during degraded execute" ~predictions
          { state with Mdp.r_p = [ fallback ] }
          result)
  in
  (* One EXECUTE transition over the state's planned expressions. *)
  let execute ~step ~where ~predictions state =
    bump executes;
    settle ~step ~where ~predictions state
      (execute_step ~span:"driver.execute"
         ~attrs:[ ("step", Span.Int step) ]
         ~step ~predictions state.Mdp.stats state.Mdp.r_p)
  in
  let init = Mdp.init_state ctx in
  List.iter
    (fun (term, d) ->
      Stats_catalog.set_distinct init.Mdp.stats ~term
        ~scope:Stats_catalog.Wildcard d)
    config.known_distincts;
  if Recorder.enabled recorder then
    Recorder.record recorder
      (Recorder.Query_start
         { query = Query.name query;
           n_rels = Query.n_rels query;
           state_key = state_id init });
  (* Degenerate single-instance queries have no join-order problem: the
     filtered scan is the whole plan, run as step 0. *)
  if Query.n_rels query <= 1 then
    match
      execute ~step:0 ~where:"mid-scan" ~predictions:[]
        { init with Mdp.r_p = [ Expr.base 0 ] }
    with
    | Some state -> finish ~timed_out:false state
    | None -> finish ~timed_out:true init
  else begin
    let sim_rng = config.mcts.Monsoon_mcts.Mcts.rng in
    let make_sim rng =
      match config.prior_of with
      | Some prior_of -> Simulator.create_with ctx ~prior_of rng
      | None -> Simulator.create ctx config.prior rng
    in
    let sim = make_sim sim_rng in
    (* The predictor samples the prior to price each EXECUTE before it runs;
       it draws from a private split of the planning rng so recording
       predictions never perturbs the MCTS random stream. *)
    let predictor = make_sim (Rng.split (Rng.copy sim_rng)) in
    let problem = Simulator.problem sim in
    let rec loop state steps =
      if Mdp.is_terminal ctx state then finish ~timed_out:false state
      else if steps >= config.max_steps then begin
        Recorder.record recorder
          (Recorder.Note
             { step = steps; message = "step limit reached before completion" });
        finish ~timed_out:true state
      end
      else if Deadline.expired deadline then begin
        (* The planner returns early (and the executor raises) under an
           expired token; this check keeps plan-edit-only step chains from
           spinning through the remaining step budget. *)
        Recorder.record recorder
          (Recorder.Note { step = steps; message = "deadline expired" });
        finish ~timed_out:true state
      end
      else begin
        let planned, mcts_dt =
          Timer.time (fun () ->
              Monsoon_mcts.Mcts.plan ~env mcts_cfg problem state)
        in
        bump ~by:mcts_dt mcts_seconds;
        bump replans;
        match planned with
        | None ->
          (* A non-terminal state has legal actions, so the planner comes
             back empty only when its deadline ended the search before
             the first iteration. *)
          Recorder.record recorder
            (Recorder.Note
               { step = steps;
                 message = "deadline expired before the planner's first iteration" });
          finish ~timed_out:true state
        | Some (action, mstats) -> (
          bump steps_taken;
          trace := Mdp.describe_action ctx action :: !trace;
          if Recorder.enabled recorder then
            Recorder.record recorder
              (Recorder.Decision
                 { step = steps;
                   state_key = state_id state;
                   legal_actions = List.length (Mdp.legal_actions ctx state);
                   chosen = Mdp.describe_action ctx action;
                   selection =
                     selection_name config.mcts.Monsoon_mcts.Mcts.selection;
                   root_visits = mstats.Monsoon_mcts.Mcts.root_visits;
                   plan_seconds = mcts_dt;
                   candidates =
                     List.map
                       (fun (c : _ Monsoon_mcts.Mcts.candidate) ->
                         { Recorder.cand_action =
                             Mdp.describe_action ctx
                               c.Monsoon_mcts.Mcts.cand_action;
                           cand_visits = c.Monsoon_mcts.Mcts.cand_visits;
                           cand_mean = c.Monsoon_mcts.Mcts.cand_mean })
                       mstats.Monsoon_mcts.Mcts.candidates });
          match action with
          | Mdp.Execute -> (
            match
              execute ~step:steps ~where:"mid-execute"
                ~predictions:(Simulator.predict_counts predictor state)
                state
            with
            | Some next -> loop next (steps + 1)
            | None -> finish ~timed_out:true state)
          | Mdp.Add_stats_of_exec _ | Mdp.Wrap_stats _ | Mdp.Join_exec _
          | Mdp.Join_planned _ | Mdp.Join_mixed _ ->
            loop (Mdp.apply_plan_edit state action) (steps + 1))
      end
    in
    loop init 0
  end
