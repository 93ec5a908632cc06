(** The sampled model of the Monsoon MDP used during planning.

    Plan edits pass through deterministically with zero reward. EXECUTE is
    simulated by the recursive statistics-generation algorithm of Sec 4.3:
    result counts already in S short-circuit; missing child counts are
    generated bottom-up; missing distinct counts are drawn from the prior
    (scoped to the predicate they serve); Σ-topped expressions additionally
    harden a measured (wildcard) distinct count for every still-unknown
    interesting term. The reward is the negated cost of Sec 4.4. *)

open Monsoon_util
open Monsoon_stats

type t

val create : Mdp.ctx -> Prior.t -> Rng.t -> t
(** One prior for every term — the paper's "general-purpose magic
    distribution" usage. *)

val create_with : Mdp.ctx -> prior_of:(int -> Prior.t) -> Rng.t -> t
(** Per-term priors (term id → prior), for tailored or example-specific
    priors such as the Sec 2.3 walkthrough. *)

val step : t -> Mdp.state -> Mdp.action -> Mdp.state * float
(** One sampled transition. The input state is not mutated. *)

val predict_counts :
  t -> Mdp.state -> (Monsoon_relalg.Relset.t * float) list
(** Plan-time cardinality predictions for one EXECUTE of the state's R_p:
    every mask whose count the model had to compute (not already hardened
    in S) paired with the predicted count, first computation wins. Runs
    over a private statistics copy and consumes draws only from this
    simulator's rng — pass a dedicated simulator (e.g. over a split rng)
    to keep the planning stream undisturbed. *)

val problem : t -> (Mdp.state, Mdp.action) Monsoon_mcts.Mcts.problem
(** Package as an MCTS planning problem. Plan edits are reported as
    deterministic transitions, EXECUTE as stochastic. The rollout policy
    pre-chooses EXECUTE with probability ½ when R_p is non-empty (exactly
    when EXECUTE is legal) and otherwise leaves the uniform choice to the
    planner. *)

val expected_execute_cost : t -> Mdp.state -> n:int -> float
(** Monte-Carlo mean of the EXECUTE reward magnitude from a state ([n]
    samples) — used by examples and the Figure 1 bench to report expected
    strategy costs. *)
