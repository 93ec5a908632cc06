(** Frozen row-at-a-time reference executor.

    The pre-columnar engine, kept verbatim as the oracle the differential
    suite and the bench speedup kernels compare [Monsoon_exec.Executor]
    against. Same contract as [Monsoon_exec.Executor] — cost accounting,
    [stat_obs], budget, caching by instance mask, fault/deadline
    checkpoints — interpreted one boxed row at a time. Not called by any
    production path. *)

open Monsoon_storage
open Monsoon_relalg

exception Timeout

type budget = { mutable remaining : float }

val budget : float -> budget

type t

val create : ?env:Monsoon_util.Env.t -> Catalog.t -> Query.t -> budget -> t

val set_budget : t -> budget -> unit

type stat_obs = {
  obs_counts : (Relset.t * float) list;
  obs_distincts : (int * float) list;
  obs_stats_cost : float;
  obs_nodes : (Expr.t * float) list;
}

val execute : t -> Expr.t -> float * stat_obs
val result_rows : t -> Expr.t -> Table.row array
val total_produced : t -> float
val sigma_objects : t -> float
