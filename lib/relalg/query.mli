(** Query intermediate representation.

    A query is a set of base relation *instances* (the same catalog table may
    appear several times, as [o1]/[o2] in the paper's fraud example) plus a
    conjunction of partially obscured predicates over terms. Join ordering is
    the optimization problem; projections/aggregates are irrelevant to it and
    live outside this IR. *)

type rel = { id : int; table : string; alias : string }

type t

val name : t -> string
val rels : t -> rel array
val rel_by_id : t -> int -> rel
val n_rels : t -> int
val all_mask : t -> Relset.t
val preds : t -> Predicate.t array
val pred : t -> int -> Predicate.t
val terms : t -> Term.t array
(** All distinct terms, indexed by term id. *)

val term : t -> int -> Term.t

val n_preds : t -> int

val term_mask : t -> int -> Relset.t
(** Instances a term (by id) reads; [Term.rels], precomputed. *)

val is_join_pred : t -> int -> bool

val join_left_mask : t -> int -> Relset.t
val join_right_mask : t -> int -> Relset.t
(** Instances of a join predicate's left and right term;
    [Relset.empty] for selections. *)

val becomes_evaluable : t -> int -> left:Relset.t -> right:Relset.t -> bool
(** Is the predicate (by id) evaluable on the union of the two sides but
    on neither alone? *)

val newly_evaluable : t -> left:Relset.t -> right:Relset.t -> int list
(** Predicates that become checkable when two disjoint expressions are
    joined: evaluable on the union but on neither side alone. *)

val connecting : t -> Relset.t -> Relset.t -> int list
(** Join predicates usable as equi-join conditions between the two sides:
    one term entirely within [left], the other entirely within [right].
    A subset of {!newly_evaluable}; the rest are applied as post-join
    filters. *)

val connected : t -> Relset.t -> Relset.t -> bool

val preds_of_term : t -> int -> int list
(** Predicates mentioning the term. *)

val select_preds_of_rel : t -> int -> int list
(** Single-instance selection predicates pushed into the scan of a rel. *)

val interesting_terms : t -> Relset.t -> Term.t list
(** Terms that participate in at least one predicate and are evaluable on
    the mask — the ones a Σ pass over such an expression measures. *)

val n_interesting : t -> int
(** The terms that participate in at least one predicate, indexed
    [0 .. n_interesting - 1] in ascending term-id order. *)

val interesting_id : t -> int -> int
(** Term id of the [k]-th interesting term. *)

val interesting_mask : t -> int -> Relset.t
(** Instances the [k]-th interesting term reads. *)

(** Incremental construction. *)
module Builder : sig
  type query := t
  type t

  val create : name:string -> t

  val rel : t -> table:string -> alias:string -> int
  (** Registers a relation instance, returning its id. *)

  val term : t -> Udf.t -> (int * string) list -> Term.t
  (** Creates a term over previously registered instances. Reuse the returned
      value to share one term across several predicates. *)

  val join_pred : t -> Term.t -> Term.t -> unit
  (** Adds [l = r]. The two terms must span disjoint, non-empty instance
      sets. *)

  val select_pred : t -> Term.t -> Monsoon_storage.Value.t -> unit

  val build : t -> query
  (** Validates and freezes. Raises [Invalid_argument] on an ill-formed
      query (no instances, dangling ids, overlapping join sides). *)
end
