(** Batch views for the vectorized executor.

    A chunk pairs a materialized relation's row ids with gather-once typed
    {!Monsoon_storage.Column} views and selection-vector machinery. The
    executor's vectorized operators (filtered scan, hash-join build/probe,
    cross product, Σ pass) work on chunks; each column of a relation is
    gathered at most once per executor, from the base table's cached
    column through the ids, and unfiltered base tables borrow the columns
    cached on the {!Monsoon_storage.Table} itself. *)

open Monsoon_storage
open Monsoon_relalg

type t

val of_intermediate :
  ?borrow:bool -> Query.t -> Catalog.t -> Intermediate.t -> t
(** Pass [~borrow:true] only when the intermediate is its table's
    unfiltered scan ({!Intermediate.of_table}): the chunk then shares the
    table's cached columns instead of gathering. *)

val intermediate : t -> Intermediate.t

val column : t -> int -> Column.t
(** Column at an absolute slot, gathered on first access. *)

val gather_column : Value.ty -> Column.t -> int array -> n:int -> Column.t
(** [gather_column ty col ids ~n] reads [col] (declared type [ty]) at the
    first [n] entries of [ids].
    The result has the representation {!Monsoon_storage.Column.of_values}
    gives the gathered values: a Boxed column whose gathered values all
    agree with [ty] comes back typed. A Dict result may share the base
    dictionary (codes then need not be in first-appearance order). *)

(** {2 Vectorized predicates}

    Index predicates replicating [Value.equal] semantics exactly (NaN
    equals NaN, [0.] equals [-0.], cross-constructor comparisons false). *)

val eq_const : Column.t -> Value.t -> int -> bool
val eq_cols : Column.t -> Column.t -> int -> int -> bool

val key_hash_pair : Column.t -> Column.t -> (int -> int) * (int -> int)
(** Cheapest consistent bucketing hashes for one join key's (build, probe)
    column pair: equal values bucket equally across the two sides. When
    both sides share a typed representation the hash is allocation-free
    native-int mixing; otherwise it falls back to a representation-
    independent Int64 hash (floats normalized, so [0.] and [-0.] and all
    NaNs bucket together; not [Value.hash]). Safe to
    vary per pair because only bucket assignment depends on it — the
    emitted-row order comes from chain insertion order. *)

(** {2 Selection vectors} *)

type sel = { mutable idx : int array; mutable n : int }

val sel_all : int -> sel
val refine : (int -> bool) -> sel -> unit

val sel_eq_const : Column.t -> Value.t -> int -> sel
(** [sel_eq_const col v n] is [sel_all n] refined by [eq_const col v],
    fused into one direct loop over the column representation. *)

val next_pow2 : int -> int
(** Smallest power of two [>= n] and [>= 16]: chained-index bucket count. *)
