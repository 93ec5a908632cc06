(** Generic Monte-Carlo tree search over a sampled decision process
    (paper Sec 5.1).

    The planner is *online*: given a state, it runs a fixed number of
    rollouts through a simulator of the process and returns the action whose
    estimated long-term reward is best. Both selection strategies evaluated
    in the paper are provided: UCT (Kocsis–Szepesvári) with the paper's
    weight w = √2, and adaptive ε-greedy with a 0.1 floor. Rewards are
    min–max-normalized across the rollouts of one planning call, as the
    paper prescribes for UCT. *)

type ('s, 'a) problem = {
  actions : 's -> 'a list;
      (** Legal actions; must be non-empty for non-terminal states. Listing
          must draw no random numbers: the search lists a node's actions
          only when a simulation first reaches it. *)
  step : 's -> 'a -> 's * float * bool;
      (** Samples one transition from the process model; returns the next
          state, the immediate reward (negated cost) and whether the
          transition is deterministic. Must not mutate the input state.

          A transition reported deterministic promises that the same state
          and action always give the same next-state key and reward, and
          that the step draws no random numbers. The search then keeps the
          edge's one child and reward and never steps that edge again: a
          later descent follows the stored child and counts the
          transposition a key lookup would have found. Stochastic edges
          are stepped on every descent, their children shared by key. *)
  is_terminal : 's -> bool;
  key : 's -> string;
      (** Canonical state fingerprint: identical keys mean identical states
          (used to share chance-node children). Only the states reached
          over stochastic edges are keyed. *)
  rollout_policy : (Monsoon_util.Rng.t -> 's -> unit -> 'a option) option;
      (** The "predefined policy" driving simulations below the tree
          (Sec 5.1), as a pre-choice made before the actions are listed:
          [Some a] takes [a] without listing; [None] lists the actions and
          takes one uniformly at random from the planner's rng, as does a
          problem without a policy ([None]). A pre-choice must be a legal
          action, and on a state with no legal actions the policy must
          return [None] without drawing.

          The trailing [unit] keeps the policy's draws and the listing
          apart: a wrapper that times the policy (bench_e2e's probe times
          [rollout_policy] and [actions] separately) measures exactly the
          pre-choice. Handing the policy the action list lazily or as a
          thunk would run the timed listing inside the timed policy and
          count that time twice. *)
}

type selection =
  | Uct of float  (** exploration weight; the paper uses [sqrt 2.] *)
  | Epsilon_greedy  (** ε from 1.0 down to the 0.1 floor *)

type config = {
  iterations : int;
  selection : selection;
  rng : Monsoon_util.Rng.t;
  max_rollout_steps : int;
      (** safety cap on rollout length; generous values never bind for the
          Monsoon MDP, whose episodes are structurally finite *)
  deadline : Monsoon_util.Deadline.t;
      (** checked between iterations: an expired or cancelled token ends
          the search early with the partial tree (no exception), so a
          cell abandoned by the harness never spins in the planner.
          Default [Deadline.none] — and note wall-clock deadlines trade
          away run-to-run determinism *)
}

val default_config : rng:Monsoon_util.Rng.t -> config
(** 2000 iterations, UCT(√2), rollout cap 10_000, no deadline. *)

type 'a candidate = {
  cand_action : 'a;
  cand_visits : int;
  cand_mean : float;  (** mean raw (unnormalized) return through the edge *)
}

type 'a stats = {
  chosen_visits : int;
  chosen_mean : float;  (** mean raw (unnormalized) return of the choice *)
  root_visits : int;
  candidates : 'a candidate list;
      (** root statistics of *every* expanded root action, in expansion
          order — the flight recorder's view of the decision, not just its
          winner *)
}

val plan :
  ?env:Monsoon_util.Env.t ->
  config -> ('s, 'a) problem -> 's -> ('a * 'a stats) option
(** [plan cfg p s] returns the preferred action from [s], or [None] when
    [s] is terminal or the deadline ended the search before its first
    iteration. The returned stats carry the full root-child statistics
    ([candidates]) so callers (e.g. the driver's flight recorder) can
    report why the action won.

    With a context packed into [?env] (the planner's deadline lives on
    {!config}, not the environment), each call bumps [mcts.plans] /
    [mcts.iterations] (the iterations that ran: fewer than
    [cfg.iterations] when the deadline ended the search) /
    [mcts.expansions] / [mcts.transpositions] counters, observes
    per-iteration tree depth in the [mcts.tree_depth] histogram, and emits
    an [mcts.plan] span carrying iteration, expansion, and selection
    attributes ([root_visits], [chosen_visits], [chosen_mean]). *)
