(** The observability context callers thread through the stack: one metric
    {!Registry.t}, one span {!Span.tracer}, and one decision flight
    {!Recorder.t}.

    Every instrumented entry point ([Executor.create], [Mcts.plan],
    [Driver.run], [Runner.run_suite], …) takes a single optional
    [?env:Monsoon_util.Env.t] carrying a context packed via {!to_env};
    omitting it gets a fresh Null-sink, null-recorder context, so
    uninstrumented callers keep working and pay only counter updates.
    There is exactly one way to ask for observability — no separate
    [?recorder] arguments anywhere.

    Registries, tracers, and metrics are domain-safe and may be shared
    across a worker pool. The recorder is the exception: it buffers events
    for a single query run and must be owned by one domain at a time —
    attach a fresh one per query via {!with_recorder}. *)

type t = {
  registry : Registry.t;
  tracer : Span.tracer;
  recorder : Recorder.t;
  trace_id : string option;
      (** request identity: when set, every span opened through
          {!with_span} carries a ["trace"] attribute with this id *)
}

val create : ?sink:Span.sink -> ?recorder:Recorder.t -> unit -> t
(** Default sink: {!Span.Null}; default recorder: {!Recorder.null}. *)

val null : unit -> t
(** Fresh context that records metrics but drops spans and events. *)

val with_recorder : t -> Recorder.t -> t
(** Same registry and tracer, different recorder — the per-query handle for
    EXPLAIN-style capture. *)

val recorder : t -> Recorder.t

val with_trace_id : t -> string -> t
(** Same registry, tracer, and recorder, with the given request trace id:
    every span subsequently opened through {!with_span} carries a
    ["trace"] attribute, so Perfetto timelines, JSONL trace lines, and the
    {!Qlog} record of one request join on one key. *)

val trace_id : t -> string option

val counter : t -> ?labels:(string * string) list -> string -> Metric.Counter.t
val gauge : t -> ?labels:(string * string) list -> string -> Metric.Gauge.t

val histogram :
  t -> ?base:float -> ?labels:(string * string) list -> string ->
  Metric.Histogram.t

val with_span :
  t -> ?attrs:(string * Span.attr) list -> string -> (Span.t -> 'a) -> 'a

val tracing : t -> bool
(** [Span.enabled] on the context's tracer: [false] when spans go to the
    Null sink. Lets producers skip building expensive span attributes
    (pretty-printed plan nodes) that no sink would record. *)

val record : t -> Recorder.event -> unit
(** Shorthand for [Recorder.record (recorder t)] — a single branch when the
    recorder is null. *)

(** {2 Execution environments}

    [Monsoon_util.Env.t] is how contexts travel: engine entry points take
    one [?env] instead of a [?ctx]/[?fault]/[?deadline] triple. The
    telemetry slot of an env is an extensible variant owned by the util
    layer; these two functions are its only constructor and destructor. *)

type Monsoon_util.Env.ctx += Packed of t

val to_env : ?env:Monsoon_util.Env.t -> t -> Monsoon_util.Env.t
(** [to_env t] is {!Monsoon_util.Env.default} carrying [t]; pass [?env] to
    set the slot on an existing environment instead. *)

val of_env : Monsoon_util.Env.t -> t
(** The packed context, or {!null} for an unpacked slot — the same default
    a missing [?ctx] used to get. *)
