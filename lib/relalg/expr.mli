(** Relational-algebra expressions (partial plans).

    Leaves reference *materialized* inputs by their relation-instance mask —
    either a single base instance or an intermediate produced by an earlier
    EXECUTE step. Internal nodes are joins; a [Stats] node is the paper's Σ
    statistics-collection operator and may only appear at the top of an
    expression.

    Predicates are not stored in the tree: by convention every predicate is
    applied at the lowest node where it becomes evaluable, so the tree shape
    determines them (see {!Query.newly_evaluable}). A consequence used
    throughout the system is that the *cardinality* of an expression's result
    depends only on its mask, never on its shape, so result counts are keyed
    by mask. *)

type t = private
  | Leaf of { mask : Relset.t; key : string }
  | Join of { left : t; right : t; mask : Relset.t; key : string }
  | Stats of { inner : t; mask : Relset.t; key : string }
(** Every node carries its {!mask} and {!key}, computed when it is built. *)

val leaf : Relset.t -> t
(** Requires a non-empty mask. *)

val base : int -> t
(** [base i] = [leaf (singleton i)]. *)

val join : t -> t -> t
(** Canonically ordered; raises [Invalid_argument] if masks overlap or
    either side carries a Σ. *)

val stats : t -> t
(** Wraps with Σ; raises [Invalid_argument] if already topped by Σ. *)

val mask : t -> Relset.t
val has_stats : t -> bool
(** Is the top node a Σ? (Σ cannot occur deeper.) *)

val strip_stats : t -> t
val key : t -> string
(** Canonical key: equal for structurally identical plans. A leaf's key is
    its mask in decimal, a join's ["(a*b)"] over its children's keys, a
    Σ's ["S"] before its input's key. *)

val compare : t -> t -> int
(** [String.compare] on the keys. *)

val equal : t -> t -> bool

val join_nodes : t -> (Relset.t * Relset.t) list
(** Masks of the two sides of every join node, bottom-up. *)

val leaves : t -> Relset.t list

val describe : Query.t -> t -> string
(** Pretty form using instance aliases, e.g. ["((R ⨝ S) ⨝ T)"]. *)
