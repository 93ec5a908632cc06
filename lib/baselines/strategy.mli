(** The seven optimization strategies of the paper's evaluation (Sec 6.2.2),
    under one interface. Every strategy is charged the same way: statistics
    acquisition plus intermediate objects produced by real execution, against
    a shared tuple budget standing in for the paper's 20-minute timeout. *)

open Monsoon_storage
open Monsoon_relalg

type outcome = {
  cost : float;  (** objects charged: acquisition + intermediates *)
  timed_out : bool;
  wall : float;  (** seconds, end to end *)
  plan_time : float;  (** seconds spent planning (MCTS / DP / sampling) *)
  stats_cost : float;  (** objects attributable to statistics gathering *)
  result_card : float;
  degraded : int;
      (** EXECUTE steps that survived a fault by degrading to a fallback
          plan (only Monsoon degrades; 0 for every baseline) *)
  plan : string;  (** human-readable plan or action trace *)
}

type t = {
  name : string;
  applicable : Query.t -> bool;
      (** the paper drops some options on some benchmarks (e.g. On-Demand
          with multi-instance UDFs) *)
  run :
    ?env:Monsoon_util.Env.t ->
    rng:Monsoon_util.Rng.t -> budget:float -> Catalog.t -> Query.t -> outcome;
      (** The environment threads the observability context (metrics,
          spans, recorder) into the executor — and, for Monsoon, the driver
          and MCTS; {!Monsoon_util.Env.default} keeps the strategy silent.
          [env.fault] arms the executor's fault checkpoints; Monsoon
          degrades to a fallback plan on injection, every other strategy
          lets [Monsoon_util.Fault.Injected] escape for the harness to
          retry. [env.deadline] cooperatively bounds the run; expiry
          reports a timed-out outcome. *)
}

val postgres : t
(** Full statistics computed offline and not charged — the paper's upper
    baseline. *)

val defaults : t
val greedy : t
val on_demand : t
val sampling : t
val skinner : t

val monsoon_config :
  ?iterations:int ->
  ?scale_with_size:bool ->
  ?selection:Monsoon_mcts.Mcts.selection ->
  ?mcts_workers:int ->
  Monsoon_stats.Prior.t ->
  rng:Monsoon_util.Rng.t ->
  budget:float ->
  Query.t ->
  Monsoon_core.Driver.config
(** The driver config {!monsoon} runs a query with — the one owner of the
    Monsoon effort policy, so [explain] replays exactly the measured run.
    Arguments and defaults as for {!monsoon}. *)

val monsoon :
  ?iterations:int ->
  ?scale_with_size:bool ->
  ?selection:Monsoon_mcts.Mcts.selection ->
  ?mcts_workers:int ->
  ?stats_repo:Monsoon_stats_repo.Stats_repo.t ->
  Monsoon_stats.Prior.t ->
  t
(** The Monsoon optimizer with the given prior (2000 MCTS iterations and
    UCT(√2) by default). [scale_with_size] (default true) multiplies the
    iteration budget for 6- and 7-instance queries, whose action spaces are
    much larger. [mcts_workers] (default 1) turns on root-parallel planning
    ({!Monsoon_core.Driver.config.mcts_workers}). [stats_repo] attaches a
    cross-query statistics repository ({!Monsoon_stats_repo.Stats_repo}).
    Before each run its warm-start answers become the config's
    [known_distincts] (Known) and [prior_of] (Hint), counted on
    [repo.lookups] / [repo.hits] / [repo.warm_starts]; after it the run's
    measured statistics are flushed, counted on [repo.flushes] /
    [repo.entries_written]. Omitted, or empty, runs are byte-identical to
    runs without the repository. *)

val fixed_plan : name:string -> (Query.t -> Expr.t) -> t
(** Execute a externally supplied plan (the OTT benchmark's hand-written
    plans). *)

val execute_plan :
  ?env:Monsoon_util.Env.t ->
  t0:float ->
  plan_time:float ->
  stats_cost:float ->
  budget:float ->
  Catalog.t ->
  Query.t ->
  Expr.t ->
  outcome
(** Shared execution tail for plan-once strategies: charges [stats_cost]
    against the budget up front, then runs the plan. Used by strategy
    implementations living in other modules (e.g. {!Lec}). *)

val standard_seven : Monsoon_stats.Prior.t -> t list
(** Postgres, Defaults, Greedy, Monsoon, On-Demand, Sampling, SkinnerDB —
    the lineup of Tables 3–6. *)
