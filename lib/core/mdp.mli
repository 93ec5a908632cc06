(** The Monsoon MDP (paper Sec 4): states, actions, and the deterministic
    part of the transition function.

    A state is the triple (R_p, R_e, S): planned-but-unexecuted RA
    expressions, executed/materialized expressions (represented by their
    instance masks — see {!Monsoon_relalg.Expr} for why masks suffice), and
    the set of observed statistics. Plan-editing actions are deterministic;
    the stochastic EXECUTE transition lives in {!Simulator} (sampled model)
    and {!Driver} (real world). *)

open Monsoon_storage
open Monsoon_relalg
open Monsoon_stats

type state = {
  r_p : Expr.t list;  (** sorted by canonical key; keys unique *)
  r_e : Relset.t list;  (** ascending, without duplicates *)
  stats : Stats_catalog.t;
}

type action =
  | Add_stats_of_exec of Relset.t
      (** Σ over a materialized expression (action 1 of Sec 4.2). *)
  | Wrap_stats of Expr.t
      (** Replace r ∈ R_p with Σ(r) (action 2). *)
  | Join_exec of Relset.t * Relset.t
      (** Add a join of two materialized expressions to R_p (action 3). *)
  | Join_planned of Expr.t * Expr.t
      (** Join two planned expressions (action 4). *)
  | Join_mixed of Relset.t * Expr.t
      (** Join a materialized with a planned expression (action 5). *)
  | Execute  (** Materialize everything in R_p. *)

type r_e_pairs
(** Per-run table from R_e contents to the pairs of R_e masks a Join_exec
    could join, with their unions and connectivity (see {!legal_actions}). *)

type ctx = private {
  query : Query.t;
  raw_counts : float array;
  r_e_pairs : r_e_pairs;
}
(** Per-query planning context: the instance sizes are the only statistics
    assumed known up front. It also holds the per-run R_e table, which
    {!legal_actions} fills as it meets new R_e contents; one run owns its
    context, and a context must not be shared across domains. *)

val make_ctx : Catalog.t -> Query.t -> ctx
(** The instance sizes are the cardinalities of the catalog's tables. *)

val ctx_of_sizes : Query.t -> float array -> ctx
(** A context from a query and its instance sizes, indexed like
    {!Query.rels}, for planning without a storage catalog. *)

val init_state : ctx -> state
(** R_p empty, R_e the base instances, S empty. *)

val is_terminal : ctx -> state -> bool
(** The complete query has been materialized. *)

val legal_actions : ctx -> state -> action list
(** Follows Sec 4.2, with two standard prunings: a join candidate without a
    connecting predicate is only offered when no connected candidate exists
    anywhere (cross products only when necessary), and Σ is only offered
    when it would measure at least one still-unknown statistic. Plans with a
    mask already covered inside R_p are not duplicated. What the R_e pairs
    contribute apart from R_p is computed once per R_e contents and kept
    in the context. *)

val apply_plan_edit : state -> action -> state
(** The deterministic transitions; raises [Invalid_argument] on [Execute]. *)

val executed_masks : Expr.t -> Relset.t list
(** Masks that executing the expression adds to R_e: every join node plus
    the (Σ-stripped) root. *)

val after_execute : state -> Stats_catalog.t -> state
(** The deterministic half of EXECUTE, shared by the simulated and the
    real transition: R_p empties, and R_e gains every {!executed_masks}
    mask of the planned expressions whose count is now in the given
    statistics (base instances always), which become the new S. Each mask
    is inserted into the ascending, duplicate-free R_e. *)

val state_key : state -> string
(** The exact bytes of the state, for MCTS chance-node sharing: equal keys
    iff equal R_p (by [Expr.key]), R_e and statistics
    ({!Stats_catalog.fingerprint}). Binary, not printable. *)

val pp_action : ctx -> Format.formatter -> action -> unit
(** The single pretty-printer for actions (["plan Σ(S)"], ["EXECUTE"], …);
    every textual rendering of an action goes through it. *)

val describe_action : ctx -> action -> string
(** [Format.asprintf] over {!pp_action}. *)

val describe_mask : ctx -> Relset.t -> string
(** Pretty form of a materialized mask using instance aliases. *)
