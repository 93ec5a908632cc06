(** Deterministic, seedable fault injection.

    Monsoon plans under opaque, untrusted code; this module makes that code
    (and the machinery around it) misbehave on purpose. A {!spec} names the
    fault classes and their probabilities; {!plan} arms a plan by pairing a
    spec with its own RNG stream. Producers (the executor, the worker pool)
    consult the plan at well-defined checkpoints, and each firing
    checkpoint raises {!Injected}.

    {2 Checkpoints}

    The executor (and the reference row engine, draw for draw) consults a
    plan once per operator, at its entry: every draw of an operator comes
    before it draws budget or evaluates a term, so an operator that faults
    has done nothing.
    - A base scan draws one [row], then one [udf] per opaque term of its
      selections, in predicate order.
    - A join draws one [udf] per opaque term of its connecting predicates,
      then of its straddling filters (each predicate's terms in declared
      order). A join with a connecting predicate then draws one [build].
    - A Σ pass draws one [udf] per opaque interesting term, in term order.
    - Identity projections never draw: they are column reads, not code.
      Cache hits never draw.

    So [udf] is the chance that one operator's call into one opaque UDF
    fails, [row] the chance that a base scan meets a poisoned row, and
    [build] the chance that a hash join's build fails. A query without
    opaque terms draws no [udf] at all.

    Determinism contract: a plan draws only from its private RNG, one draw
    per checkpoint whose rate is positive, so the same spec + RNG seed
    fires at exactly the same checkpoints on every run, independent of
    wall-clock and of how many domains the harness uses. A rate-0 class
    never touches the RNG, so a rate-0 plan is byte-identical to no plan.
    Deriving the RNG from a {e copy} of the per-cell stream (see
    [Monsoon_harness.Runner]) keeps the planner/executor streams
    untouched.

    Following the telemetry layer's Null-sink pattern, {!disabled} is the
    default everywhere and costs a single branch per checkpoint. *)

exception Injected of string
(** Raised by a firing checkpoint; the payload names the fault class
    ("udf", "row", "build"). *)

type spec = {
  udf_rate : float;  (** probability an operator's opaque-term draw raises *)
  row_rate : float;  (** probability a base scan's draw raises *)
  build_rate : float;  (** probability a hash-join build's draw raises *)
  worker_kills : int;
      (** pool workers to kill (and respawn) over the run — consumed by
          [Pool.inject_kills], not by per-checkpoint draws *)
}

val no_faults : spec
(** All rates 0, no kills. *)

val spec_of_string : string -> (spec, string) result
(** Parse a CLI fault spec: comma-separated [class:value] pairs, e.g.
    ["udf:0.05,worker:1"]. Classes: [udf], [row], [build] (rates in
    [0,1]) and [worker] (a non-negative kill count). Unlisted classes
    stay at {!no_faults}; a class listed twice is an error. *)

val spec_to_string : spec -> string
(** Canonical round-trippable rendering (every class listed): a rate
    prints as [%g] when that reads back as the same float, else as
    [%.17g], so [spec_of_string (spec_to_string s) = Ok s] for every
    valid spec. *)

type t
(** A fault plan: {!disabled}, or a spec armed with a private RNG. *)

val disabled : t
(** The no-op plan: every checkpoint is a single branch. *)

val plan : spec -> Rng.t -> t
(** [plan spec rng] arms [spec] over the given stream. The plan owns
    [rng]; hand it a fresh split, never a stream someone else draws
    from. Worker kills are not the plan's: pool owners read
    [spec.worker_kills]. *)

val udf : t -> unit
(** Opaque-term checkpoint.
    @raise Injected with probability [udf_rate]. *)

val row : t -> unit
(** Base-scan checkpoint.
    @raise Injected with probability [row_rate]. *)

val build : t -> unit
(** Hash-join-build checkpoint.
    @raise Injected with probability [build_rate]. *)
