(** Partially obscured predicates (paper Sec 3.1).

    Every predicate in scope compares UDF outputs: either an equi-join
    between two terms, or an equality selection of a term against a
    constant. The value-level grammar of the paper reduces to these two
    shapes once every [value] is (w.l.o.g.) a [funcEval]. *)

open Monsoon_storage

type t =
  | Join of { id : int; left : Term.t; right : Term.t }
      (** [F_left(...) = F_right(...)] where the two terms read disjoint
          relation-instance sets. *)
  | Select of { id : int; term : Term.t; value : Value.t }
      (** [F(...) = const]. *)

val id : t -> int

val rels : t -> Relset.t
(** All relation instances the predicate touches. *)

val terms : t -> Term.t list
val describe : t -> string

val join_sides : t -> (Term.t * Term.t) option
(** [Some (l, r)] for join predicates. *)
