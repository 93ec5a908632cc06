(** HyperLogLog distinct-value sketch (Flajolet et al., with the HLL++-style
    small-range correction of Heule et al.).

    This is the statistic collector the paper's "On Demand" and "Monsoon"
    options use: one pass over a (possibly UDF-transformed) column produces an
    estimate of the number of distinct values with ~1.04/sqrt(2^p) relative
    standard error. *)

type t

val create : ?p:int -> unit -> t
(** [create ~p ()] uses [2^p] registers; [p] defaults to 12 (4096 registers,
    ~1.6 % standard error). Requires [4 <= p <= 18]. *)

val add_hash : t -> int64 -> unit
(** Feed a pre-hashed item. The hash must be (close to) uniform on 64 bits;
    use {!Monsoon_util.Hashing}. *)

val add_string : t -> string -> unit
val add_int : t -> int -> unit

val count : t -> float
(** Current cardinality estimate. Costs O(64 - p): the sketch keeps a
    count of registers per rank, and [count] sums those classes. When the
    top rank exceeds [52 - p] (a hash with that many trailing zero bits
    past the index, about one in 2^(52 - p) items) it instead reads all
    2^p registers, in register order, as summing by class could round
    differently there. Either way the result is the register-order sum's,
    bit for bit. *)

val equal : t -> t -> bool
(** Same [p] and the same registers: the two sketches count alike, and
    stay alike under the same further items. *)

val merge : t -> t -> t
(** Union of the underlying multisets. Both sketches must share [p]. *)

val clear : t -> unit
(** Empties the sketch. This is how a sketch is reused: one sketch
    cleared between streams counts each stream as a fresh {!create} of
    the same [p] would. A clear costs a 2^p-byte fill, or nothing when
    no item has been added since the last one. *)
