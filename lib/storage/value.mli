(** Runtime values.

    Every cell in a table and every output of a UDF is one of these. Dates
    are stored as day counts so arithmetic and bucketing UDFs stay cheap. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of int  (** days since 1970-01-01 *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int64
(** Strong 64-bit hash, suitable for HyperLogLog. [Null] hashes to a fixed
    value distinct from all non-null encodings. *)

val to_string : t -> string
(** Rendering used for display and for sample-based distinct estimation. *)

val pp : Format.formatter -> t -> unit

(** Accessors raising [Invalid_argument] on type mismatch. *)

val as_int : t -> int
val as_float : t -> float
val as_string : t -> string

type ty = TBool | TInt | TFloat | TStr | TDate

val ty_to_string : ty -> string
