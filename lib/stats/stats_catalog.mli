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
(** ["C[counts]D[distincts]V[version]"], the statistics part of the MCTS
    state key. Counts render as ["mask:%.4g"] ascending by mask;
    distincts as ["term@scope:%.4g"] with scope ['*'] (measured), ['s']
    (selection) or the predicate id, ascending by term, then [Wildcard],
    [For_select], [For_pred] by predicate (a monomorphic comparator that
    keeps the order polymorphic [compare] gave these entries); both
    joined by [',']. Numbers are written by {!Monsoon_util.Decimal}, the
    same bytes as [string_of_int] and [Printf]'s [%.4g]. Rendered once
    per catalog contents: any [set_*] renders it afresh. *)

val size : t -> int
(** Total number of entries. Not a safe fingerprint on its own: an
    overwrite leaves [size] unchanged — combine with {!version}. *)

val version : t -> int
(** Monotone write counter: bumped by every [set_count]/[set_distinct],
    including overwrites, and carried by {!copy}. Two catalogs reached by
    different write sequences from the same origin never share a
    (size, version) pair, which is what the MCTS state hash needs. *)
