(** Nested trace spans on the monotonic clock, emitted to a pluggable sink.

    A {!tracer} hands out span ids and tracks the open-span stack so
    children find their parent implicitly. Completed spans go to the
    tracer's sink:

    - {!sink.Null} (the default everywhere) records nothing: [with_span]
      reduces to calling the thunk with a shared dummy span, so
      uninstrumented runs pay essentially nothing;
    - [Memory] keeps completed spans in order for tests and in-process
      reports;
    - [Jsonl] appends one JSON object per completed span to a
      {!Jsonl.writer} as the span closes; a line that cannot be written
      is counted on the writer, never raised;
    - [Multi] fans out to several sinks.

    Spans close in LIFO order; an exception escaping the thunk still closes
    the span (tagged with an ["error"] attribute) and re-raises.

    A tracer may be shared across domains: ids come from an atomic counter,
    the open-span stack is domain-local (so parent/child nesting is tracked
    per domain and never crosses domains), [Memory] buffers are
    mutex-guarded, and [Jsonl] lines are written whole by
    {!Jsonl.append}. The [Null] fast path
    stays allocation- and lock-free. *)

type attr =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type t = {
  id : int;
  parent : int option;  (** id of the enclosing span, if any *)
  name : string;
  start : float;  (** {!Monsoon_util.Timer.now} seconds (monotonic) *)
  mutable stop : float;  (** [nan] while the span is open *)
  mutable attrs : (string * attr) list;
}

val duration : t -> float

type buffer

type sink =
  | Null
  | Memory of buffer
  | Jsonl of Jsonl.writer
  | Callback of (t -> unit)
      (** Called once per completed span, on the domain that closed it
          (so the callback may read [Domain.self ()] for attribution).
          The callback must be domain-safe; see {!Trace_event.sink}. *)
  | Multi of sink list

val memory_buffer : unit -> buffer

val buffer_spans : buffer -> t list
(** Completed spans in completion order (children before their parent). *)

type tracer

val make : sink -> tracer
val null : unit -> tracer

val enabled : tracer -> bool
(** [false] for a [Null]-sink tracer: spans will not be recorded. *)

val set_attr : t -> string -> attr -> unit
(** Replaces an existing attribute of the same name. No-op on the dummy
    span that [with_span] passes under a [Null] sink. *)

val with_span :
  tracer -> ?attrs:(string * attr) list -> string -> (t -> 'a) -> 'a

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
