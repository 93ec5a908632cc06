(** The per-query decision flight recorder.

    While {!Span} answers "where did the time go", the recorder answers
    "why did the optimizer do that": it captures the full optimize/execute
    trajectory of one driver run as structured events — every MDP decision
    with the MCTS root statistics of all candidate actions, every EXECUTE
    with predicted (prior-sampled at plan time) vs observed cardinalities
    and the derived q-error, and every statistic as it hardens into the
    catalog.

    The recorder is deliberately generic: events carry pretty-printed
    strings and plain numbers, never relational-algebra values, so the
    telemetry layer stays dependency-free and the producers (driver,
    executor) do the rendering. A {!null} recorder drops everything;
    [record] on it is a single branch, so the instrumented paths cost
    nothing when recording is off.

    Unlike the rest of the telemetry layer, a recorder is {b not}
    domain-safe: it buffers one query's trajectory and must be owned by a
    single domain at a time. Parallel harnesses attach a fresh recorder per
    query ({!Ctx.with_recorder}) instead of sharing one.

    Consumers: {!Explain} renders the ASCII EXPLAIN ANALYZE-style report;
    {!to_json} / {!to_dot} export the trajectory and the recorded MCTS
    root decisions for offline inspection ([dot -Tsvg] renders the
    search-tree view). *)

type candidate = {
  cand_action : string;  (** pretty-printed action *)
  cand_visits : int;  (** MCTS visits through the root edge *)
  cand_mean : float;  (** mean raw (unnormalized) return of the edge *)
}

(** One plan node's execution profile: the single operator record, built
    by [Monsoon_exec.Profile.finish] and carried unchanged into explain
    and JSON. Every field except [p_ms] is deterministic —
    byte-identical across worker counts and audited/unaudited runs. *)
type node_profile = {
  p_kind : string;  (** operator kind: ["scan"]/["hash-join"]/["cross"]/["sigma"] *)
  p_path : string;
      (** the path the operator took, e.g. ["join_ints"], ["cross"],
          ["sel_eq_const"], ["refine"], ["raw"], ["column"], ["row"] *)
  p_repr : string;
      (** comma-joined column representation per input slot touched, in
          touch order (["ints"]/["floats"]/["dict"]/["boxed"]/["rows"]) *)
  p_rows_in : float;  (** input rows (both sides summed for joins) *)
  p_rows_out : float;  (** output cardinality (0 for incomplete nodes) *)
  p_selectivity : float;
      (** rows out over the operator's input domain (the cross-product
          size for joins, the scan input for scans, 1 for Σ) *)
  p_batches : int;
      (** chunk views consumed (0 for a raw scan and for a Σ pass over
          opaque terms only) *)
  p_sel_density : float;
      (** selection-vector density after the first fused predicate;
          defaults to the overall selectivity when nothing was fused *)
  p_chain_max : int;  (** longest hash-join bucket chain (joins only) *)
  p_chain_mean : float;  (** mean chain length over non-empty buckets *)
  p_budget : float;  (** budget drawn while this node ran *)
  p_complete : bool;
      (** [false] when the node died to Timeout / deadline / fault *)
  p_ms : float;  (** wall milliseconds — the only nondeterministic field *)
}

type exec_node = {
  node_expr : string;  (** pretty-printed (sub-)expression *)
  node_mask : int;  (** relation-instance mask of the node *)
  node_depth : int;  (** depth in its plan tree (0 = root), for rendering *)
  node_predicted : float option;
      (** cardinality the planner expected, sampled from the prior over the
          statistics known at plan time; [None] when the count was already
          measured (nothing was predicted) *)
  node_observed : float option;
      (** measured result cardinality; [None] when the budget died before
          the node materialized *)
  node_q_error : float option;
      (** [q_error ~predicted ~observed] when both sides are present *)
  node_profile : node_profile option;
      (** operator-level execution profile, when the run was profiled and
          this node was materialized (not served from the cache) *)
}

type stat_subject =
  | Count of int  (** a result count, keyed by instance mask *)
  | Distinct of int  (** a Σ-measured distinct count, keyed by term id *)

type event =
  | Query_start of { query : string; n_rels : int; state_key : string }
      (** always first: the initial MDP state. A state is named by the
          32-character lowercase hex MD5 of its binary planner key. *)
  | Decision of {
      step : int;
      state_key : string;  (** as in [Query_start] *)
      legal_actions : int;
      chosen : string;
      selection : string;  (** MCTS selection strategy, e.g. ["uct(w=1.41)"] *)
      root_visits : int;
      plan_seconds : float;
      candidates : candidate list;  (** root statistics, expansion order *)
    }
  | Executed of {
      step : int;
      nodes : exec_node list;  (** per planned expression, pre-order *)
      cost : float;  (** objects charged by this EXECUTE *)
      timed_out : bool;
    }
  | Stat_observed of {
      step : int;
      subject : stat_subject;
      pretty : string;  (** rendered mask or term *)
      value : float;
    }  (** a statistic hardening into the catalog *)
  | Degraded of { step : int; reason : string; fallback : string }
      (** an EXECUTE step died to an injected (or real) fault and the
          driver fell back to the named plan — [reason] is the fault
          class, [fallback] the pretty-printed replacement expression *)
  | Note of { step : int; message : string }
  | Query_finish of {
      steps : int;
      cost : float;
      timed_out : bool;
      result_card : float;
    }  (** always last *)

type t

val create : unit -> t
(** A recording recorder with an empty event buffer. *)

val null : unit -> t
(** Records nothing; {!record} is a no-op. *)

val enabled : t -> bool

val record : t -> event -> unit
val events : t -> event list
(** In recording order. *)

val clear : t -> unit

val q_error : predicted:float -> observed:float -> float
(** [max (p/o) (o/p)] with both sides clamped to ≥ 1 — the standard
    cardinality-estimation error factor ("How Good Are Query Optimizers,
    Really?"). Always ≥ 1; 1 means the estimate was exact. *)

val to_json : t -> Json.t
(** The full trajectory as a JSON array, one object per event. *)

val to_dot : t -> string
(** Graphviz digraph of the recorded MCTS root decisions: one cluster of
    candidate nodes per {!Decision} (labeled with visits and mean reward,
    the chosen edge bold), chained along the trajectory. Accepted by
    [dot -Tsvg]. *)
