(** Per-plan-node execution profiles for the vectorized executor.

    A collector is an explicit [?profile] argument of [Executor.create]
    and [Driver.run] (default {!disabled}). It holds only the scratch of
    the node in flight: while {!Executor.execute} materializes a plan
    node, the operators write into it, and when the node ends — complete,
    or dead to {!Executor.Timeout}, an expired deadline or an injected
    fault — {!finish} freezes it into a
    {!Monsoon_telemetry.Recorder.node_profile}: operator kind, wall time
    (on the {!Monsoon_util.Timer} monotonic clock, the span clock), rows
    in/out, observed selectivity, chunk/batch counts, the
    column-representation mix per input slot, selection-vector density,
    the path the operator took, join bucket-chain shape, and budget
    spent. The profile travels in the node's {!Executor.node} record;
    the collector keeps no list of its own.

    {b Determinism contract.} Every field except [p_ms] is a pure
    function of the execution, and profiling never perturbs execution
    (it only reads), so {!fingerprint}s are byte-identical across
    [--jobs] worker counts and audited/unaudited runs; rows and
    selectivities agree exactly with the row-at-a-time reference engine
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

val add_repr_read : t -> Value.ty -> Column.t -> int array -> n:int -> unit
(** [add_repr] for a column of declared type [ty] as read at the first
    [n] of [ids], by the gather rule: the label is the representation
    {!Column.of_values} gives the values read. Only a Boxed column's label
    can change: when every value read agrees with [ty], it takes [ty]'s
    typed label. *)

val add_repr_rows : t -> unit
(** The operator touched boxed rows, not a column: an opaque UDF term
    (a scan selection, a join key or a Σ term) evaluated per tuple. *)

val set_sel_density : t -> kept:int -> of_:int -> unit

val observe_chains : t -> head:int array -> next:int array -> unit
(** Record bucket-chain shape from a chained index's [head]/[next]
    arrays (-1-terminated chains). Walks the index, so callers guard
    with {!live}. *)

val finish :
  t ->
  default_kind:kind ->
  rows_out:float ->
  budget:float ->
  complete:bool ->
  seconds:float ->
  Monsoon_telemetry.Recorder.node_profile option
(** Freeze the scratch into the node's profile (kind from {!set_kind}
    when set, else [default_kind]; [seconds] is stored as [p_ms]); [None]
    from {!disabled}. *)

(** {2 Consumer interface (tests)} *)

val fingerprint :
  Query.t -> Expr.t -> Monsoon_telemetry.Recorder.node_profile -> string
(** Deterministic one-line digest of a plan node's profile, everything
    except the wall time (hex floats, so equality is bit-exact) — the
    byte-identity tests compare concatenations of these. *)
