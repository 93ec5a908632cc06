(** Table schemas: an ordered list of named, typed columns. *)

type column = { name : string; ty : Value.ty }
type t

val make : column list -> t
(** Raises [Invalid_argument] on duplicate column names. *)

val columns : t -> column array
val arity : t -> int
val index_of : t -> string -> int
(** Raises [Not_found] for unknown columns. *)

val mem : t -> string -> bool
val pp : Format.formatter -> t -> unit
