(** In-memory row-store tables.

    Rows are immutable-by-convention value arrays matching the schema. The
    executor treats tables as materialized relations; base tables and
    materialized intermediates share this representation. *)

type row = Value.t array
type t

val create : name:string -> Schema.t -> t
val of_rows : name:string -> Schema.t -> row list -> t
val of_row_array : name:string -> Schema.t -> row array -> t

val name : t -> string
val schema : t -> Schema.t
val cardinality : t -> int
val rows : t -> row array
(** The backing array — do not mutate. *)

val append : t -> row -> unit
val get : t -> int -> row
val iter : (row -> unit) -> t -> unit
val fold : ('a -> row -> 'a) -> 'a -> t -> 'a

val column_values : t -> string -> Value.t array
(** All values of one column, in row order. *)

val column : t -> string -> Column.t
(** Typed columnar view of one column, materialized through the shared
    {!Column.of_values} path on first access and cached until the next
    {!append}. *)

val column_at : t -> int -> Column.t
(** {!column} by schema slot. *)

val prime_columns : t -> unit
(** Materialize every column eagerly (through the same shared path the
    lazy accessors use). Workload generators call this once after filling
    a table, so query execution never pays first-touch gathering. *)

val distinct_exact : t -> string -> int
(** Exact distinct count of a column (test/baseline oracle). *)
