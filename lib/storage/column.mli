(** Typed columnar views of row data.

    A column is the vertical slice of one attribute, unboxed where the
    declared type allows: ints, dates and bools in a Bigarray int vector,
    floats in a float64 vector, strings dictionary-encoded. Columns that
    cannot be unboxed (Nulls, values disagreeing with the schema) fall back
    to the boxed [Value.t] array — still a column, just without the
    vectorized fast paths.

    {!of_values} is the single row→column materialization path, behind
    {!Table}'s cached accessors. The executor reads those cached columns
    in place, through each intermediate's row ids. *)

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type int_kind = KInt | KDate | KBool

type t =
  | Ints of { kind : int_kind; data : ints }
  | Floats of floats
  | Dict of { codes : ints; dict : Value.t array; strs : string array }
      (** [dict] holds the distinct boxed values in first-appearance order;
          [strs] the same entries unwrapped. Decoding reuses the boxed
          values, so gathering a dict column back into rows allocates
          nothing. *)
  | Boxed of Value.t array

val of_values : Value.ty -> Value.t array -> t
(** Materialize one column from boxed values against its declared type.
    Any disagreeing value demotes the whole column to [Boxed]. *)

val agrees : Value.ty -> Value.t -> bool
(** [agrees ty v]: [v] unboxes under declared type [ty] — the test
    {!of_values} applies to every value. *)

val length : t -> int

val get : t -> int -> Value.t
(** Decoded (boxed) value at an index. Allocates for [Ints]/[Floats]. *)

val value_hash : t -> int -> int64
(** [Value.hash] of [get t i], computed without boxing. *)
