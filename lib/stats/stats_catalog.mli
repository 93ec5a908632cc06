(** The set of observed statistics S (paper Sec 4.1).

    Two kinds of entries:
    - result counts [c(r)], keyed by the relation-instance mask of the
      expression (result cardinality is shape-independent — see {!Expr});
    - distinct-value counts [d(F, r|s)], keyed by term and scope. A value
      *measured* by an executed Σ pass is stored with [Wildcard] scope and
      answers every predicate context; a value *assumed* while generating a
      transition is scoped to the predicate it was sampled for.

    The catalog is persistent under the hood (balanced maps behind mutable
    roots), so {!copy} is O(1) and clones share structure: MCTS clones the
    catalog at every stochastic transition, thousands of times per
    planning step. *)

open Monsoon_relalg

type scope =
  | Wildcard       (** measured; answers every context *)
  | For_pred of int  (** assumed while costing one join predicate *)
  | For_select     (** assumed while costing a selection *)

type t

val create : unit -> t
val copy : t -> t

val set_count : t -> Relset.t -> float -> unit
val count : t -> Relset.t -> float option

val set_distinct : t -> term:int -> scope:scope -> float -> unit
val distinct : t -> term:int -> pred:int option -> float option
(** Wildcard entries take precedence; [pred = None] (selection context) only
    matches wildcard or selection-scoped entries. *)

val has_measurement : t -> term:int -> bool
(** Is a wildcard (measured) distinct count present for the term? *)

val counts : t -> (Relset.t * float) list
val distincts : t -> (int * scope * float) list

val fingerprint : t -> string
(** The exact bytes of the catalog, the statistics part of the MCTS state
    key: equal fingerprints iff equal {!counts} and {!distincts}, value
    bits included. Each of the four maps (counts, measured, predicate-
    and selection-scoped distincts) is written as its size, then its
    bindings in key order, every int and every float's
    [Int64.bits_of_float] as 8 little-endian bytes. *)
