(** The persistent cross-query statistics repository (DESIGN.md §16).

    MONSOON re-learns every distinct count from scratch on every query,
    even when the same (relation, term) pair was measured minutes earlier.
    This module makes the observations durable: at every query's end the
    Monsoon strategy ([Strategy.monsoon ~stats_repo]) flushes what the run
    *measured* — result counts, Σ-pass distinct counts, per-UDF cost and
    selectivity, read from the driver's outcome — to a JSONL observation
    log, and
    at the start of a later run the same keys answer the MDP's
    buy-statistics question without paying for the Σ pass.

    {2 Determinism contract}

    Keys are fingerprints of catalog/query structure only (table names,
    column names, UDF names, query names) — never seeds, addresses or wall
    clock — so repeated runs of the same workload write identical keys.
    Appends from parallel domains interleave lines but never tear them
    (each query's lines go out under the process-wide JSONL line lock),
    and every reader sorts the observation multiset canonically before
    folding, so aggregates, snapshots and diffs are byte-identical for
    every [--jobs] value.

    A handle's baseline is frozen at {!open_}: flushes performed during a
    run become visible only to handles opened afterwards, which keeps warm
    lookups independent of cell scheduling order.

    {2 Warm-start fallback ladder}

    For each interesting term, {!lookup_distinct} answers one of:
    - [Known d] — history exists and is tight (all observations within 10%
      of the mean): the run gets [d] as a known distinct, so the MDP prunes
      the Σ action for the term;
    - [Hint p] — history exists but is dispersed: [p] is
      {!Monsoon_stats.Prior.empirical} (point mass ± observed spread),
      used as the term's prior; the Σ action stays available;
    - [Cold] — no history: the caller falls back to its configured prior
      (spike-and-slab by default). *)

open Monsoon_relalg
open Monsoon_stats

type t

val open_ : string -> t
(** [open_ path] loads the observation log at [path] with
    {!Monsoon_telemetry.Jsonl.read} (a file that cannot be read is an
    empty repository) and freezes the aggregate baseline. A line that is
    blank or torn, does not parse, names an unknown kind, or carries a
    negative value is rejected and counted ({!lines_rejected}, {!show}),
    and [Json.of_string] refuses numbers that overflow to infinity, so no
    lookup answers with a non-finite or negative value. *)

val path : t -> string

val lines_rejected : t -> int
(** The number of log lines {!open_} rejected. *)

(** {2 Fingerprints} *)

val count_key : Query.t -> Relset.t -> string
(** ["<query>|<table:alias>,..."] — result counts are per query instance. *)

val distinct_key : Query.t -> Term.t -> string
(** ["<query>|udf(table.col,...)"] — scoped by query name: a distinct is
    measured over a query-specific intermediate, so a term measured under
    one query warms later runs of that query only (DESIGN.md §16). *)

val udf_key : Query.t -> Term.t -> string
(** Same query-scoped fingerprint as {!distinct_key}; UDF
    cost/selectivity entries are stored under separate kinds. *)

(** {2 Recording} *)

val flush_query :
  t ->
  query:Query.t ->
  counts:(Relset.t * float) list ->
  distincts:(int * float) list ->
  udf:(int * float * float) list ->
  int * int
(** Appends one run's measured observations — [counts] from the statistics
    catalog, [distincts] as (term id, measured d) for genuinely measured
    Wildcard entries (warm-start seeds excluded), [udf] as (term id, rows
    evaluated, observed fraction) — the [measured_*] and
    [udf_observations] fields of a [Driver.outcome] — as JSONL lines with
    one {!Monsoon_telemetry.Jsonl.append_lines} call. Returns the lines
    written and the lines that failed; never raises. *)

(** {2 Warm-start lookups} *)

type warm = Known of float | Hint of Prior.t | Cold

val lookup_distinct : t -> query:Query.t -> term:Term.t -> warm

val lookup_udf : t -> query:Query.t -> term:Term.t -> (float * float) option
(** [(mean rows evaluated, mean kept fraction)] when both cost and
    selectivity history exist for the term's UDF fingerprint. *)

(** {2 Aggregates, snapshots, retention, diff} *)

type entry = {
  e_kind : string;  (** "count" | "distinct" | "udf-sel" | "udf-cost" *)
  e_key : string;
  e_n : int;
  e_mean : float;
  e_lo : float;
  e_hi : float;
}

val entries : t -> entry list
(** The frozen baseline in canonical order. *)

val show : t -> string
(** Deterministic rendering of the *current* log (re-read, not the frozen
    baseline), one row per key, after a count of rejected lines
    (["skipped N unusable lines"]) when there are any. *)

val snapshot : t -> (string, string) result
(** Writes the current log's aggregate to ["<path>.snap-NNNNNN.json"]
    (monotone ids, canonical entry order) and returns the file written. *)

val snapshots : t -> string list
(** Existing snapshot files, oldest first. *)

val gc : t -> keep:int -> int
(** Deletes all but the newest [keep] snapshots; returns how many were
    removed. *)

val diff : old_:string -> new_:string -> (string, string) result
(** Deterministic report between two snapshot files: new / changed / lost
    keys with +1-smoothed estimate drift, in canonical key order, no
    wall-clock content — the [qlog --diff] idiom. *)
