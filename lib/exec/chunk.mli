(** Column machinery for the vectorized executor: index predicates over
    {!Monsoon_storage.Column}s, the arena row ids are carved from, int
    codes for join keys, and selection vectors. The executor reads a
    materialized relation's columns in place: tuple [i] of an instance's
    column is the base table's cached column at the instance's row id
    [ids.{i}] — nothing is copied per intermediate. *)

open Monsoon_storage

(** {2 Vectorized predicates}

    Index predicates replicating [Value.equal] semantics exactly (NaN
    equals NaN, [0.] equals [-0.], cross-constructor comparisons false). *)

val eq_const : Column.t -> Value.t -> int -> bool

(** {2 Row-id arenas}

    An arena hands out int vectors ({!carve}) as views into chunks,
    Bigarray int vectors off the OCaml heap. Carvings of up to 2^20
    words (8 MB) share chunks of that size; a larger one takes a chunk
    of its own, of 2^20 words times the smallest power of two that holds
    it. The arena borrows each chunk from its domain's cache, or
    allocates a fresh one when the cache has none of that size, and owns
    it until {!release} gives every chunk back, so two live arenas never
    share a chunk. Of each size, the cache keeps as many chunks as one
    arena has held at most: after one pass, a workload that repeats its
    queries allocates no chunk.

    A view is valid until its arena's release: after it, the memory
    belongs to the next arena that borrows it. *)

type arena

val arena :
  fresh:Monsoon_telemetry.Metric.Counter.t ->
  carved:Monsoon_telemetry.Metric.Counter.t ->
  arena
(** An arena owning no chunk. It counts the chunks it allocates (rather
    than borrows) on [fresh] and the words it carves on [carved]. *)

val carve : arena -> int -> Column.ints
(** [carve a n]: [n] words of [a]'s, uninitialized. *)

val scratch : arena -> (unit -> 'a) -> 'a
(** [scratch a f] runs [f], then takes back the room of [a]'s current
    chunk that [f] carved, unless [f] moved on to another chunk. Nothing
    [f] carved may outlive it. *)

val release : arena -> unit
(** Gives every chunk back to the calling domain's cache. The arena
    stays usable: it borrows again on its next carving. *)

(** {2 Join key codes} *)

type read = { col : Column.t; ids : Column.ints; n : int }
(** A column as read through row ids: tuple [i < n] holds
    [Column.get col ids.{i}]. The ids are valid until their arena's
    release. *)

type codes = { data : Column.ints; at : Column.ints }
(** One side's int key codes: tuple [i]'s code is [data.{at.{i}}]. Codes
    carved from an arena are valid until its release. *)

val key_codes : arena -> read -> read -> codes * codes
(** [key_codes b p] codes one join key's build side [b] and probe side
    [p] as ints, equal exactly when the values are equal under
    structural equality (the row engine's [Hashtbl] keys: NaN equals NaN,
    [0.] equals [-0.], Null equals Null, constructors never equal across).
    Ints of one kind are their own codes, read in place through each
    side's ids. Anything else is interned by value, build side first, into
    arrays carved from the arena and read through identity ids; a probe
    value the build lacks codes as [-1]. *)

(** {2 Selection vectors} *)

type sel = { idx : Column.ints; mutable n : int }
(** The selected indices: the first [n] of [idx], carved from an arena. *)

val sel_all : arena -> int -> sel
val refine : (int -> bool) -> sel -> unit

val sel_eq_const : arena -> Column.t -> Value.t -> int -> sel
(** [sel_eq_const a col v n] is [sel_all a n] refined by [eq_const col v],
    fused into one direct loop over the column representation. *)

val next_pow2 : int -> int
(** Smallest power of two [>= n] and [>= 16]: the join kernel sizes its
    bucket array at [next_pow2 (2 * build rows)]. *)
