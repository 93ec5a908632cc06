(** The append-only query audit log: one JSONL record per driver run or
    served request.

    While the explain ring keeps the last N full captures and the span
    sinks keep timings, the qlog is the durable, compact, per-query
    record: which query ran, under which strategy, how it ended, what it
    cost in intermediate objects, how often it replanned, and how wrong
    its cardinality estimates were. Every producer (the Runner's cells,
    [monsoon serve]'s requests, [monsoon chaos]) emits the same schema —
    derived from the {!Recorder}'s [Query_finish] trajectory — so one
    aggregator ({!report}) and one regression differ ({!diff_report})
    cover them all.

    A record's [trace] field is the request's trace id
    ({!Ctx.with_trace_id}), so qlog records, Perfetto spans, and explain
    captures join on one key.

    Records go through a {!Jsonl.writer}: domain-safe, unbuffered (a
    record is in the file when {!append} returns), and a record that
    cannot be written is counted, never raised. The file is
    bounded: when an append would push it past [max_bytes] the current
    file rotates to [path ^ ".1"] (replacing any previous rotation) and a
    fresh file starts — the two files together never exceed roughly twice
    the bound. *)

type record = {
  r_trace : string;  (** request trace id; joins spans and explains *)
  r_query : string;  (** query fingerprint (the suite name, e.g. ["iq7"]) *)
  r_strategy : string;  (** strategy (Runner cell) or serving entry point *)
  r_outcome : string;  (** {!Slo.outcome_label} token: ok/degraded/… *)
  r_latency : float;  (** end-to-end seconds (wall — varies run to run) *)
  r_queue_wait : float;  (** seconds queued at admission (server only) *)
  r_cost : float;  (** intermediate objects charged (the paper's measure) *)
  r_result_card : float;
  r_steps : int;  (** MDP steps taken *)
  r_replans : int;  (** planning invocations ({!Recorder.Decision} count) *)
  r_executes : int;  (** EXECUTE steps ({!Recorder.Executed} count) *)
  r_degraded : int;  (** faults survived on a fallback plan *)
  r_fault_detail : string list;
      (** one ["reason -> fallback"] entry per degradation, in order *)
  r_worst_q_error : float option;
      (** worst per-node q-error of the run; [None] when nothing was
          predicted *)
  r_detail : string;  (** failure reason, or extra server detail *)
  r_plan : string;  (** compact plan summary (truncated to 200 chars) *)
}

val of_events :
  trace:string ->
  query:string ->
  strategy:string ->
  outcome:string ->
  latency:float ->
  queue_wait:float ->
  ?cost:float ->
  ?result_card:float ->
  ?plan:string ->
  ?detail:string ->
  Recorder.event list ->
  record
(** Builds a record from a recorded trajectory. [steps], [cost] and
    [result_card] come from the [Query_finish] event when present
    (falling back to the [?cost] / [?result_card] arguments, default 0 —
    the path for outcomes that never reached a recorder, e.g. rejected
    requests); [replans] / [executes] / [degraded] / [worst_q_error] are
    derived by folding over the events. An empty event list is valid. *)

val to_json : record -> Json.t
val of_json : Json.t -> (record, string) result

(** {1 The bounded writer} *)

type t

val create : ?max_bytes:int -> string -> (t, string) result
(** Opens [path] for appending (creating it empty if absent).
    [max_bytes] (default 64 MiB, minimum 4096) bounds the live file;
    crossing it rotates to [path ^ ".1"]. *)

val append : t -> record -> bool
(** Appends one record as one JSONL line; returns whether it reached the
    file. A failed line is counted on {!failed}. *)

val path : t -> string

val failed : t -> int
(** Records appended that did not reach the file. *)

val close : t -> unit
(** Closes the file. Idempotent. Appends after close are counted as
    failed. *)

(** {1 Reading and aggregating} *)

val load : string -> (record list, string) result
(** Reads a qlog file back with {!Jsonl.read}. Any rejected line —
    blank, torn, malformed or not a record — refuses the whole file:
    [Error] names the rejected count and the first rejected line's number
    and reason ([monsoon qlog] instead reports the records it could read
    beside every rejected line). Fields a record does not define — such
    as the per-operator [nodes] array older profiled runs wrote — are
    ignored, so such files still load. *)

val report : ?top:int -> record list -> string
(** The audit report: a per-class table (one row per query fingerprint —
    requests, outcome mix, mean cost, mean replans, worst q-error), the
    [top] (default 10) slowest records by latency, and the worst
    cardinality misestimates. Aggregation folds records in sorted order,
    so the same multiset of records renders identically regardless of
    append order (parallel runs). *)

val diff_report : ?threshold:float -> old_:record list -> record list -> string * int
(** [diff_report ~old_ new_] compares two runs per query class on the
    deterministic fields only — mean cost, outcome counts, mean replans,
    worst q-error; never latency, which varies between byte-identical
    runs — and renders an lt_profile-style regression report. A class
    regresses when its mean cost grows by more than [threshold] (default
    1.1, i.e. +10%) or its run gets strictly worse categorically (new
    timeouts/errors, a lost class). Returns the report and the regression
    count; two runs with identical deterministic fields produce a
    byte-stable report and 0. *)
