(** Tuple-budgeted plan execution over real data.

    Executes an RA expression bottom-up: filtered base scans, hash
    equi-joins on computed UDF keys (with post-join filters for straddling
    or multi-instance predicates), cross products when no predicate
    connects the sides, and the Σ statistics-collection pass via
    HyperLogLog.

    Intermediates are late-materialized ({!Intermediate}): a tuple is one
    base-row id per covered instance, so a join emits ints, not boxed
    rows. Each executor carves every row id it writes from its own arena
    ({!Chunk.arena}) of off-heap chunks, which {!release} returns to the
    domain for the next executor: after a warm-up, materializing an
    intermediate allocates no memory the GC manages or paces on.
    Execution is batch-at-a-time over the base tables' cached typed
    columns ({!Monsoon_storage.Column}), read in place through the ids:
    identity-projection terms are evaluated directly against
    Bigarray-backed columns with selection vectors, every hash join runs
    one int kernel on int codes of its keys ({!Chunk.key_codes}; an opaque
    UDF key is evaluated once per tuple first), and Σ feeds column hashes
    straight into one HyperLogLog sketch per executor, cleared per term
    (over a multi-instance intermediate, each distinct base row of an
    instance once: a sketch register keeps a maximum, so repeats change
    nothing).
    Each operator has one path. Opaque (non-identity) UDF terms are
    evaluated one tuple at a time inside it, reading base rows through
    the ids: a scan refines its selection vector by them, the join kernel
    and the cross product test straddling filters per candidate pair
    before the pair counts against the budget, and Σ hashes their
    values. The
    differential suite pins charged cost, the observations of the
    {!node} records, result rows, counters and checkpoint draw order
    against the frozen row-at-a-time reference engine beside the tests.

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
    [exec.sigma_objects], [exec.budget_spent]), the arena counts the
    row-id chunks it had to allocate rather than borrow on
    [exec.id_chunks_fresh] and the words it carved on
    [exec.id_words_carved], and every [execute] call and Σ pass emits a
    span ([exec.execute] with [objects]/[sigma_objects] attributes — set
    even when the call raises {!Timeout} — and [exec.sigma]).

    With a live [profile] collector (default {!Profile.disabled}), every
    {!node} record additionally carries the node's operator profile —
    kind, path taken, representation mix, rows, selectivity, batch
    counts, chain shape, budget drawn and wall time. Each node's wall
    time lands on the [exec.node_ms] histogram either way.
    Kernel operators (hash joins, filtered cross products, scans whose
    selections are all identity projections) are counted on
    [exec.fused_ops], and scans and Σ passes that evaluate an opaque term
    on [exec.scalar_fallbacks], regardless of profiling.

    [env.fault] is consulted at each operator's entry, per
    {!Monsoon_util.Fault}'s checkpoint contract; a firing checkpoint aborts
    the call with [Monsoon_util.Fault.Injected] (counted on the
    [fault.injected] counter). Armed or not, execution takes the same
    paths. With [env.deadline] set, every plan node of an [execute] call
    cooperatively checks the token and raises
    [Monsoon_util.Deadline.Expired] once it trips. Defaults are the Null
    sinks: one branch per checkpoint when off. *)

val set_budget : t -> budget -> unit

type node = {
  expr : Expr.t;  (** the plan node *)
  rows : float;
      (** its true output cardinality (a Σ node's is its input's); 0 when
          it died *)
  complete : bool;
      (** [false] for the node a call died in (to {!Timeout}, an expired
          deadline or an injected fault) *)
  distincts : (int * float) list;
      (** term id → HLL distinct estimate, one per term a Σ node
          finished, in term order; empty for scans and joins *)
  udf : (int * float * float) list;
      (** [(term id, rows evaluated, observed fraction)] per UDF-term
          evaluation site, in occurrence order: a filtered scan gives each
          select term the rows the terms before it kept and the fraction
          of those it kept, a Σ pass the distinct-value
          fraction [d / card]. Feeds the cross-query statistics
          repository. *)
  profile : Monsoon_telemetry.Recorder.node_profile option;
      (** the operator profile; [None] unless the collector is live *)
}
(** What one executed plan node left behind: the one record of per-node
    facts. [execute] makes one for every plan node it materializes —
    cache hits make none — when the node ends, on every exit path. A node
    that dies keeps the observations it made before it died, and its
    incomplete profile. Purely observational: recording alters no cost,
    RNG draw or checkpoint order. *)

val execute : t -> Expr.t -> float
(** Materializes the expression (caching every intermediate), returning the
    charged cost. Raises {!Timeout} when the budget runs out; the cache
    keeps whatever was completed. *)

val nodes : t -> node list
(** The most recent [execute] call's {!node} records, in completion
    order, including the node the call died in when it raised. *)

val materialized : t -> Relset.t -> Intermediate.t option

val release : t -> unit
(** Empties the cache of intermediates and gives the executor's row-id
    chunks back to the calling domain ({!Chunk.release}), for the next
    executor there to reuse. Never read an intermediate of this executor
    after its release: its ids then belong to whoever borrows the
    chunks. [materialized] returns [None] after it, and the executor
    stays usable: a later [execute] starts from an empty cache.

    An executor that is never released leaves its chunks to the GC. *)

val result_rows : t -> Expr.t -> Table.row array
(** Rows of a previously executed expression, boxed on request
    ({!Intermediate.rows}): the base rows of each tuple concatenated in
    the intermediate's layout, in emission order. *)

val total_produced : t -> float
(** Total tuples emitted by this context so far (diagnostics). *)

val sigma_objects : t -> float
(** Total objects processed by Σ passes over this context's lifetime,
    including passes cut short by {!Timeout}. Unlike the shared
    [exec.sigma_objects] counter this is private to the instance, so it
    stays exact when many executors share one telemetry context across
    domains. *)
