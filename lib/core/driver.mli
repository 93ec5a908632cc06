(** The Monsoon optimizer proper (paper Sec 5.3): interleaved MCTS planning
    and real execution.

    From the initial state, MCTS (over the {!Simulator} model seeded with
    the current observed statistics) picks one action at a time. Plan edits
    update the state directly; EXECUTE runs every planned expression on the
    engine, feeds the measured result counts and Σ distinct counts back into
    the statistics set, and planning resumes. The loop ends when the
    complete query has been materialized or the budget is exhausted. *)

open Monsoon_storage
open Monsoon_relalg
open Monsoon_stats

type config = {
  prior : Prior.t;
  prior_of : (int -> Prior.t) option;
      (** per-term (tailored) priors override [prior] when given; the paper
          notes data-set-specific priors "would possibly outperform a
          generic prior" *)
  known_distincts : (int * float) list;
      (** statistics available up front (term id → distinct count): the
          paper initializes the problem with any known statistics. This
          and [prior_of] are the only ways seeds reach a run; a
          statistics repository's warm start fills them
          ([Strategy.monsoon ~stats_repo]). *)
  mcts : Monsoon_mcts.Mcts.config;
  budget : float;  (** tuple budget standing in for the paper's 20-min timeout *)
  max_steps : int;  (** safety valve on the number of MDP actions *)
}

val default_config : rng:Monsoon_util.Rng.t -> config
(** Spike-and-slab prior, default MCTS, 1 MCTS worker, budget 5e7,
    200 steps. *)

type outcome = {
  cost : float;  (** intermediate objects charged (the paper's cost) *)
  timed_out : bool;
  wall : float;  (** end-to-end seconds *)
  mcts_time : float;  (** planning seconds (Table 8 "MCTS") *)
  stats_cost : float;  (** Σ-pass objects (Table 8 "Σ") *)
  exec_cost : float;  (** join objects (Table 8 "Execution") *)
  executes : int;  (** number of EXECUTE transitions taken *)
  degraded : int;
      (** EXECUTE steps that died to a fault and fell back to the
          left-deep plan *)
  actions : string list;  (** the action trace, for inspection *)
  result_card : float;  (** cardinality of the final result; 0 on timeout *)
  measured_counts : (Relset.t * float) list;
      (** every result count hardened into the catalog *)
  measured_distincts : (int * float) list;
      (** term id → Wildcard distinct count the run measured; the
          [known_distincts] seeds are left out *)
  udf_observations : (int * float * float) list;
      (** {!Monsoon_exec.Executor.udf_observations}: term id, rows
          evaluated, kept fraction *)
}

val run :
  ?profile:Monsoon_exec.Profile.t ->
  ?env:Monsoon_util.Env.t ->
  config -> Catalog.t -> Query.t -> outcome
(** Every EXECUTE — including the single scan of a one-instance query,
    run as step 0 — goes through one step that runs the planned
    expressions and settles the result: completed (charge the cost,
    continue), budget exhausted, deadline expired, or faulted.

    The environment carries the telemetry context, the fault plan threaded
    into the executor (an EXECUTE step killed by an injected fault degrades
    to the classical left-deep plan — a [Degraded] recorder event +
    [driver.degraded] — instead of crashing the run; a fault in that
    fallback is noted and re-raised), and the cooperative wall-clock
    deadline for the whole run (checked between MDP steps, per executor
    plan node, and between MCTS iterations unless [mcts.deadline] is
    already set; expiry yields a normal timed-out outcome, and so does a
    planning call that the deadline ended before its first iteration,
    noted in the recorder).

    With a packed context, the run emits a [driver.run] root span (with
    [query] / [timed_out] / [cost] / [executes] attributes), a
    [driver.execute] span per EXECUTE step ([driver.degrade] for a
    fallback), and bumps [driver.replans] / [driver.executes] /
    [driver.mcts_seconds] / [driver.steps] counters plus the
    [driver.q_error] (per-node cardinality error factor) and
    [driver.replans_per_query] histograms; the context is threaded into
    {!Monsoon_exec.Executor} and MCTS planning. The [outcome] component
    breakdown ([mcts_time], [executes], [degraded]) comes from per-run
    accumulators kept next to those counters, never from the shared
    registry, so concurrent runs on one context cannot bleed into each
    other.

    When the context carries an enabled {!Monsoon_telemetry.Recorder.t}
    (attach one with {!Monsoon_telemetry.Ctx.with_recorder}), the run
    additionally captures its
    full decision trajectory: [Query_start], one [Decision] per chosen
    action (state fingerprint, legal-action count, MCTS root statistics of
    every candidate), one [Executed] per EXECUTE with per-node predicted vs
    observed cardinalities and q-errors (with a live [profile] collector —
    default {!Monsoon_exec.Profile.disabled} — each operator profile
    attaches once, to the plan node that materialized it), one [Stat_observed] per statistic
    hardened into the catalog, and [Query_finish]. Predictions are sampled
    from a private split of the planning rng, so recording never perturbs
    the optimizer's random stream. Default: a null recorder — the
    instrumented paths reduce to one branch per event. *)
