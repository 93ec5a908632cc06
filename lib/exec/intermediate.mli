(** Materialized (intermediate) relations at runtime, late-materialized.

    A tuple of an intermediate covering instances \{i, j, ...\} is one
    base-table row per covered instance. The intermediate stores it as row
    ids: [ids.(k).{n}] is the row of instance [rels.(k)]'s base table in
    tuple [n], so a tuple costs one int per instance. The ids are Bigarray
    views, off the OCaml heap: the executor that made the intermediate
    carves them from its arena ({!Chunk.carve}), and they are valid until
    that executor's {!Executor.release}, which hands their memory to the
    next executor on the domain. Never read an intermediate after its
    owner's release. Columns are read from the base tables through the
    ids ({!Chunk}); boxed rows exist only when {!rows} builds them.

    The boxed layout {!rows} builds concatenates one full base row per
    instance, in a fixed per-intermediate order recorded in [offsets]; a
    join puts its left input's columns first. [rels] lists the instances
    in that order. *)

open Monsoon_storage
open Monsoon_relalg

type t = private {
  mask : Relset.t;
  offsets : int array;
      (** indexed by instance id: the instance's first slot in the boxed
          layout; -1 when absent *)
  width : int;  (** boxed tuple width *)
  rels : int array;  (** covered instances, in layout order *)
  ids : Column.ints array;
      (** [ids.(k).{i}] for [i < card]: the base row id of [rels.(k)] in
          tuple [i], valid until the owner's release. Arrays may be longer
          than [card] and may be shared: never mutate them. *)
  card : int;  (** number of tuples *)
}

val of_base : Query.t -> Catalog.t -> ids:Column.ints -> int -> t
(** A single instance's rows [ids] of its base table (a filtered scan),
    one tuple per element. *)

val of_table : Query.t -> Catalog.t -> int -> t
(** A single instance's whole base table (an unfiltered scan). Its ids
    are a prefix of one shared identity array, so the scan allocates no
    id per row. *)

val identity_prefix : int -> Column.ints
(** An identity array ([a.{i} = i]) at least [n] long, shared and never
    released: never mutate it. *)

val cardinality : t -> int

val position : t -> int -> int
(** [position t rel] is [k] with [t.rels.(k) = rel]. Raises
    [Invalid_argument] if [rel] is not covered. *)

val col_index : Query.t -> Catalog.t -> t -> rel:int -> col:string -> int
(** Absolute slot of [rel.col] in this intermediate's boxed layout. Raises
    [Not_found] for unknown columns and [Invalid_argument] if [rel] is not
    covered. *)

val of_join : t -> t -> card:int -> ids:Column.ints array -> t
(** The join of two disjoint intermediates from its output row ids: [ids]
    holds one array per instance of the first, then one per instance of
    the second (each in its input's layout order), each at least [card]
    long. The first's columns come first in the layout. *)

val rows : Query.t -> Catalog.t -> t -> Table.row array
(** The tuples as boxed rows, in tuple order. A single-instance
    intermediate returns its base rows themselves (shared, do not mutate);
    otherwise each row is fresh, the base rows concatenated at their
    [offsets]. *)
