(** The per-table / per-figure experiment registry (see DESIGN.md §4).

    Every experiment returns a rendered report. [profile] controls data
    scale, tuple budgets and MCTS effort so the whole evaluation can run as
    a quick smoke test or as the full reproduction. *)

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
  tpch_queries : string list option;  (** Table 2 subset; [None] = all 12 *)
  imdb_queries : string list option;  (** [None] = all 60 *)
  jobs : int;
      (** domains running (strategy, query) cells per suite
          ({!Runner.config.jobs}): 1 = sequential (the presets), [0] = one
          per recommended core. Table values are identical for every
          setting. *)
  ctx : Monsoon_telemetry.Ctx.t;
      (** threaded through every suite run (spans, counters); the presets
          use a silent Null-sink context — override with a record update to
          trace an experiment *)
}

val quick : profile
val full : profile

val table1 : unit -> string
(** Sec 2.3 scenario enumeration — exact reproduction of the paper's
    numbers. *)

val figure1 : unit -> string
(** The example MDP: expected costs of guessing vs collecting statistics
    first, and the action MCTS actually picks. *)

val figure1_first_action : unit -> Monsoon_core.Mdp.action option
(** The action {!figure1} reports MCTS choosing from the start state. *)

val figure2 : unit -> string
(** The five continuous prior densities. *)

val table2 : profile -> string
(** Priors × TPC-H skew variants, average Monsoon cost. *)

val tables3_4_5 : profile -> string * string * string
(** One IMDB run shared by Table 3 (all queries), Table 4 (relative to
    Postgres) and Table 5 (20 most expensive). *)

val imdb_suite : profile -> Runner.row list
(** The IMDB run behind Tables 3–5: one row per strategy of the standard
    seven. *)

val table6 : profile -> string

val ott_suite : profile -> Runner.row list
(** The OTT run behind Table 6: the hand-written plans, then the standard
    seven. *)

val table7_figure3 : profile -> string * string

val table8 : profile -> string
(** Monsoon component breakdown (MCTS / Σ / Execution). Each benchmark runs
    under a fresh [Memory]-sink telemetry context and the columns are
    derived from the emitted spans ([mcts.plan] durations, [exec.sigma] and
    [exec.execute] object attributes). *)

val warmstart : ?repo_path:string -> profile -> string
(** Cold-vs-warm repeated workload over the cross-query statistics
    repository ({!Monsoon_stats_repo.Stats_repo}): the IMDB ablation subset
    runs once against an empty repository (cold — every warm lookup misses,
    every measured statistic is flushed), a snapshot is taken, then the
    same suite runs again with the repository reopened (warm — tight
    history seeds the MDP's catalog and the Σ action becomes a lookup),
    and a second snapshot is taken. The report shows per-query intermediate
    objects for both regimes, total replans per query, the dominance
    verdict line (greppable: ["WARMSTART DOMINANCE: objects=... replans=..."])
    and the deterministic snapshot diff. The repository is
    {!with_warmstart_repo}'s; no path, timestamp, or wall-clock number
    appears in the report, which is byte-identical for every
    [profile.jobs] value. *)

val with_warmstart_repo : ?repo_path:string -> (string -> 'a) -> 'a
(** [with_warmstart_repo ?repo_path f] runs [f] on the repository path of
    one warm-start run. That is [repo_path], else [$MONSOON_REPO]; such a
    path is reset (log and snapshots removed) before [f] so the regimes
    are exactly reproducible. Failing both, it is
    [monsoon-warmstart.jsonl] in a fresh directory under the system temp
    directory, removed with the log and its snapshots when [f] returns or
    raises, so concurrent default runs never share a log. *)

val ablation_selection : profile -> string
(** UCT vs ε-greedy (both Sec 5.1 strategies). *)

val ablation_iterations : profile -> string
(** MCTS iteration budget sweep. *)

val ablation_prior_spikes : profile -> string
(** Spike-and-slab with and without its foreign-key point masses. *)

val all : (string * string * (profile -> string)) list
(** (id, description, run) for every experiment, in paper order. *)

val run : profile -> id:string -> (profile -> string) -> string
(** [run profile ~id fn] invokes one experiment under an ["experiment"]
    span carrying the id and bumps the [harness.experiments] counter —
    the entry point the CLI uses so traces and live metrics cover whole
    tables. *)

val explain :
  ?op_profile:bool ->
  profile ->
  experiment:string ->
  query:string ->
  (Monsoon_telemetry.Recorder.t, string) result
(** Re-run Monsoon on one query of a benchmark experiment with the decision
    flight recorder attached, reproducing the exact run the experiment
    table would have measured (same per-query rng seeding, the same
    {!Monsoon_baselines.Strategy.monsoon_config}, same budget).
    [experiment] names a benchmark-backed experiment ([tpch]/[table2],
    [imdb]/[table3..5], [ott]/[table6], [udf]/[table7]/[figure3]).
    [Error] carries a usage message listing valid ids or queries. With [op_profile] (default false, the CLI's
    [--profile]) the run gets a live execution profile collector, so the
    report's plan tables gain per-operator rows (time share, rows,
    selectivity, representation mix, path taken) — profiling only reads,
    so the run's decisions and costs are unchanged. Render the result
    with {!Monsoon_telemetry.Explain.report},
    {!Monsoon_telemetry.Recorder.to_dot} or [to_json]. *)

val service :
  profile ->
  experiment:string ->
  ?faults:Monsoon_util.Fault.spec ->
  ?stats_repo:Monsoon_stats_repo.Stats_repo.t ->
  unit ->
  (Monsoon_server.Server.handler * string list, string) result
(** The serving-side face of a benchmark experiment: a
    {!Monsoon_server.Server.handler} that answers the experiment's query
    names with the Monsoon strategy (per-request RNG and deadline come from
    the server; faults follow the Runner idiom — the per-request plan
    splits off a copy of the stream, so a rate-zero spec is byte-identical
    to no faults), plus the query-name list to advertise on [GET /queries].
    [experiment] accepts the same ids as {!explain}. Worker kills in
    [faults] are not applied here — the serve entry point passes them to
    {!Monsoon_server.Server.inject_kills}. With [stats_repo], the
    profile's registry gets a [stats_repo.lines_rejected] counter holding
    {!Monsoon_stats_repo.Stats_repo.lines_rejected}. *)

val chaos :
  profile ->
  experiment:string ->
  faults:Monsoon_util.Fault.spec ->
  retries:int ->
  cell_deadline:float option ->
  ?qlog:Monsoon_telemetry.Qlog.t ->
  unit ->
  (string, string) result
(** Run a benchmark experiment's suite (all seven implementations) with the
    fault plane armed and render a survival report: per-implementation
    OK / timeout / degraded / retried / quarantined counts, the cost table,
    and the resilience counters. The report contains no wall-clock numbers,
    so the same seed + spec produces a byte-identical report across runs
    and across [profile.jobs] settings. [experiment] accepts the same ids
    as {!explain}. [?qlog] audits every cell attempt
    ({!Monsoon_harness.Runner.config}[.qlog]). *)
