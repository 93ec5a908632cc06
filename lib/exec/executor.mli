(** Tuple-budgeted plan execution over real data.

    Executes an RA expression bottom-up: filtered base scans, hash
    equi-joins on computed UDF keys (with post-join filters for straddling
    or multi-instance predicates), cross products when no predicate
    connects the sides, and the Σ statistics-collection pass via
    HyperLogLog.

    Execution is batch-at-a-time over typed columnar chunks
    ({!Monsoon_storage.Column} / {!Chunk}): identity-projection terms are
    evaluated directly against Bigarray-backed columns with selection
    vectors, hash-join keys are hashed and verified unboxed, and Σ feeds
    column hashes straight into HyperLogLog. Opaque (non-identity) UDF
    terms and armed fault plans take the scalar row path, which is
    observationally identical — the differential suite pins charged cost,
    [stat_obs], counters and checkpoint draw order against the frozen
    {!Row_engine}.

    Cost accounting matches {!Monsoon_relalg.Cost_model}: each join node is
    charged its output cardinality, a Σ node an extra pass over its input,
    base scans are free, and the complete query's final result is not
    charged. The *budget* is stricter than the cost: every emitted tuple
    (including final results and scan outputs) draws it down, so a runaway
    plan raises {!Timeout} promptly. *)

open Monsoon_storage
open Monsoon_relalg

exception Timeout

type budget = { mutable remaining : float }

val budget : float -> budget

type t
(** Execution context: one query over one catalog, with a cache of
    materialized intermediates keyed by instance mask. Persists across the
    multiple EXECUTE steps of a Monsoon run. *)

val create :
  ?profile:Profile.t -> ?env:Monsoon_util.Env.t -> Catalog.t -> Query.t ->
  budget -> t
(** The execution environment bundles the telemetry context, fault plan
    and deadline; [Monsoon_util.Env.default] (the default) is all Null
    sinks. With a packed context ([Monsoon_telemetry.Ctx.to_env]),
    per-operator tuple counters land in the context's registry
    ([exec.tuples_scanned]/[_built]/[_probed]/[_emitted],
    [exec.sigma_objects], [exec.budget_spent]) and every [execute] call and
    Σ pass emits a span ([exec.execute] with [objects]/[sigma_objects]
    attributes — set even when the call raises {!Timeout} — and
    [exec.sigma]).

    With a live [profile] collector (default {!Profile.disabled}), every
    [execute] call additionally records one {!Profile.node} per plan node it
    materializes — kind, path taken, representation mix, rows,
    selectivity, batch counts, chain shape, budget drawn and wall time —
    and each node's wall time lands on the [exec.node_ms] histogram.
    Fused-path hits and scalar fallbacks are counted on
    [exec.fused_ops] / [exec.scalar_fallbacks] regardless of profiling.

    With an armed [env.fault], the plan is consulted at three checkpoints —
    each compiled UDF evaluation, each scanned base row, each hash-join
    build — and a firing checkpoint aborts the call with
    [Monsoon_util.Fault.Injected] (counted on the [fault.injected]
    counter); an armed plan also pins execution to the scalar row path so
    the checkpoint draw order is exactly the row engine's. With
    [env.deadline] set, every plan node of an [execute] call cooperatively
    checks the token and raises [Monsoon_util.Deadline.Expired] once it
    trips. Defaults are the Null sinks: one branch per checkpoint when
    off. *)

val set_budget : t -> budget -> unit

type stat_obs = {
  obs_counts : (Relset.t * float) list;
      (** true cardinalities of every expression materialized by this call *)
  obs_distincts : (int * float) list;
      (** term id → HLL distinct estimate, for Σ-topped expressions *)
  obs_stats_cost : float;
      (** portion of the charged cost due to Σ passes (paper Table 8) *)
  obs_nodes : (Expr.t * float) list;
      (** plan node → observed cardinality, one entry per expression this
          call actually materialized (cache hits excluded), in completion
          order. The flight recorder joins these against the plan-time
          predictions to compute per-node q-errors. *)
}

val execute : t -> Expr.t -> float * stat_obs
(** Materializes the expression (caching every intermediate), returning the
    charged cost and the statistics observed. Raises {!Timeout} when the
    budget runs out; the cache keeps whatever was completed. *)

val materialized : t -> Relset.t -> Intermediate.t option

val result_rows : t -> Expr.t -> Table.row array
(** Rows of a previously executed expression. *)

val total_produced : t -> float
(** Total tuples emitted by this context so far (diagnostics). *)

val sigma_objects : t -> float
(** Total objects processed by Σ passes over this context's lifetime,
    including passes cut short by {!Timeout}. Unlike the shared
    [exec.sigma_objects] counter this is private to the instance, so it
    stays exact when many executors share one telemetry context across
    domains. *)

val udf_observations : t -> (int * float * float) list
(** [(term id, rows evaluated, observed fraction)] per UDF-term evaluation
    site this context has executed, in occurrence order: filtered base
    scans contribute the select term's pass fraction, Σ passes the
    distinct-value fraction [d / card]. Purely observational — the
    accumulator feeds the cross-query statistics repository and alters no
    cost, RNG draw, or checkpoint order, so the {!Row_engine} differential
    contract is untouched. *)
