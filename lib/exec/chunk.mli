(** Column machinery for the vectorized executor: index predicates over
    {!Monsoon_storage.Column}s, int codes for join keys, and selection
    vectors. The executor reads a materialized relation's columns in
    place: tuple [i] of an instance's column is the base table's cached
    column at the instance's row id [ids.(i)] — nothing is copied per
    intermediate. *)

open Monsoon_storage

(** {2 Vectorized predicates}

    Index predicates replicating [Value.equal] semantics exactly (NaN
    equals NaN, [0.] equals [-0.], cross-constructor comparisons false). *)

val eq_const : Column.t -> Value.t -> int -> bool

(** {2 Join key codes} *)

type read = { col : Column.t; ids : int array; n : int }
(** A column as read through row ids: tuple [i < n] holds
    [Column.get col ids.(i)]. *)

type codes = { data : Column.ints; at : int array }
(** One side's int key codes: tuple [i]'s code is [data.{at.(i)}]. *)

val key_codes : read -> read -> codes * codes
(** [key_codes b p] codes one join key's build side [b] and probe side
    [p] as ints, equal exactly when the values are equal under
    structural equality (the row engine's [Hashtbl] keys: NaN equals NaN,
    [0.] equals [-0.], Null equals Null, constructors never equal across).
    Ints of one kind are their own codes, read in place through each
    side's ids. Anything else is interned by value, build side first, into
    fresh arrays read through identity ids; a probe value the build lacks
    codes as [-1]. *)

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
