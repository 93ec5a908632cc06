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

(** {2 Join key codes} *)

val key_codes : Column.t -> Column.t -> Column.ints * Column.ints
(** [key_codes b p] codes one join key's build column [b] and probe
    column [p] as ints, equal exactly when the values are equal under
    structural equality (the row engine's [Hashtbl] keys: NaN equals NaN,
    [0.] equals [-0.], Null equals Null, constructors never equal across).
    Ints of one kind are their own codes; anything else is interned by
    value, build side first, and a probe value the build lacks codes as
    [-1]. *)

(** {2 Selection vectors} *)

type sel = { mutable idx : int array; mutable n : int }

val sel_all : int -> sel
val refine : (int -> bool) -> sel -> unit

val sel_eq_const : Column.t -> Value.t -> int -> sel
(** [sel_eq_const col v n] is [sel_all n] refined by [eq_const col v],
    fused into one direct loop over the column representation. *)

val next_pow2 : int -> int
(** Smallest power of two [>= n] and [>= 16]: the join kernel sizes its
    bucket array at [next_pow2 (2 * build rows)]. *)
