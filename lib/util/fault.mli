(** Deterministic, seedable fault injection.

    Monsoon plans under opaque, untrusted code; this module makes that code
    (and the machinery around it) misbehave on purpose. A {!spec} names the
    fault classes and their probabilities; {!plan} arms a plan by pairing a
    spec with its own RNG stream. Producers (the executor, the worker pool)
    consult the plan at well-defined checkpoints — a UDF evaluation, a
    scanned row, a hash-join build — and each firing checkpoint raises
    {!Injected}.

    Determinism contract: a plan draws only from its private RNG, one draw
    per checkpoint whose rate is positive, so the same spec + RNG seed
    fires at exactly the same checkpoints on every run, independent of
    wall-clock and of how many domains the harness uses. Deriving the RNG
    from a {e copy} of the per-cell stream (see
    [Monsoon_harness.Runner]) keeps the planner/executor streams
    untouched: a rate-0 plan is byte-identical to no plan at all.

    Following the telemetry layer's Null-sink pattern, {!disabled} is the
    default everywhere and costs a single pointer comparison per
    checkpoint. *)

exception Injected of string
(** Raised by a firing checkpoint; the payload names the fault class
    ("udf", "row", "build"). *)

type spec = {
  udf_rate : float;  (** probability a UDF evaluation raises *)
  row_rate : float;  (** probability a scanned base row is poisoned *)
  build_rate : float;  (** probability a hash-join build fails outright *)
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
    stay at {!no_faults}. *)

val spec_to_string : spec -> string
(** Canonical round-trippable rendering (every class listed): a rate
    prints as [%g] when that reads back as the same float, else as
    [%.17g], so [spec_of_string (spec_to_string s) = Ok s] for every
    valid spec. *)

type t
(** A fault plan: {!disabled}, or a spec armed with a private RNG. *)

val disabled : t
(** The no-op plan: every checkpoint is a single branch. *)

val armed : t -> bool

val plan : spec -> Rng.t -> t
(** [plan spec rng] arms [spec] over the given stream. The plan owns
    [rng]; hand it a fresh split, never a stream someone else draws
    from. A spec whose three rates are all 0 can never fire, so it yields
    {!disabled} and keeps the executor on its fused paths. *)

val udf : t -> unit
(** UDF-evaluation checkpoint.
    @raise Injected with probability [udf_rate]. *)

val row : t -> unit
(** Scanned-row checkpoint.
    @raise Injected with probability [row_rate]. *)

val build : t -> unit
(** Hash-join-build checkpoint.
    @raise Injected with probability [build_rate]. *)

val injected : t -> int
(** Checkpoints fired so far (0 for {!disabled}). *)

val worker_kills : t -> int
(** The spec's kill budget (0 for {!disabled}, including a rate-0 spec;
    pool owners read kills from the spec). *)
