(** Per-plan-node execution profiles for the vectorized executor.

    A collector is an explicit [?profile] argument of [Executor.create]
    and [Driver.run] (default {!disabled}); when live, {!Executor.execute}
    records one {!node} per plan node it materializes — operator kind,
    wall time (on the {!Monsoon_util.Timer} monotonic clock, the span
    clock), rows in/out, observed selectivity, chunk/batch counts, the
    column-representation mix per input slot, selection-vector density,
    the fused-vs-scalar path taken, join bucket-chain shape, and budget
    spent — in completion order, including a final incomplete node when
    the operator died to {!Executor.Timeout}, an expired deadline, or an
    injected fault.

    {b Determinism contract.} Every field except [p_ms] is a pure
    function of the execution, and profiling never perturbs execution
    (it only reads), so {!fingerprint}s are byte-identical across
    [--jobs] worker counts and audited/unaudited runs; rows and
    selectivities agree exactly with the scalar {!Row_engine} oracle
    (pinned by the differential suite).

    {b Null-path rule.} {!disabled} is the one-branch no-op collector:
    every mutator is a single [live] load-and-branch, like
    [Fault.disabled] and the Null span sink, so instrumented hot paths
    cost noise when profiling is off (bench-gated). *)

open Monsoon_storage
open Monsoon_relalg

type kind = Scan | Join | Cross | Sigma

val kind_label : kind -> string
(** ["scan"] / ["hash-join"] / ["cross"] / ["sigma"]. *)

type node = {
  n_expr : Expr.t;  (** the plan node *)
  n_mask : Relset.t;
  n_profile : Monsoon_telemetry.Recorder.node_profile;
      (** the operator record — kind, path, representation mix, rows,
          selectivity, batches, chain shape, budget, completeness and wall
          milliseconds; see {!Monsoon_telemetry.Recorder.node_profile} *)
}

type t

val disabled : t
(** The shared no-op collector ({!live} = false). *)

val create : unit -> t
val live : t -> bool

(** {2 Producer interface (the executor)} *)

val reset : t -> unit
(** Clear the in-flight scratch; called when a node starts. *)

val set_kind : t -> kind -> unit
val set_path : t -> string -> unit

val set_input : t -> rows:float -> denom:float -> unit
(** Input cardinality and the selectivity denominator. *)

val add_batches : t -> int -> unit

val add_repr : t -> Column.t -> unit
(** Append the column's representation label to the input-slot mix. *)

val add_repr_rows : t -> unit
(** The scalar path touched boxed rows, not a column. *)

val set_sel_density : t -> kept:int -> of_:int -> unit

val observe_chains : t -> head:int array -> next:int array -> unit
(** Record bucket-chain shape from a chained index's [head]/[next]
    arrays (-1-terminated chains). Walks the index, so callers guard
    with {!live}. *)

val finish :
  t ->
  expr:Expr.t ->
  mask:Relset.t ->
  default_kind:kind ->
  rows_out:float ->
  budget:float ->
  complete:bool ->
  seconds:float ->
  unit
(** Freeze the scratch into a {!node} (kind from {!set_kind} when set,
    else [default_kind]; [seconds] is stored as [p_ms]) and append it in
    completion order. *)

(** {2 Consumer interface (driver, tests)} *)

val nodes : t -> node list
(** All nodes, completion order. *)

val drain : t -> node list
(** Nodes recorded since the previous [drain], completion order. The
    driver drains after every [Executor.execute] call — including the
    early-exit paths — so each Executed event carries exactly its own
    step's profiles. *)

val fingerprint : Query.t -> node -> string
(** Deterministic one-line digest of everything except the wall time
    (hex floats, so equality is bit-exact) — the byte-identity tests
    compare concatenations of these. *)
