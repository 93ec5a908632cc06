type t = {
  registry : Registry.t;
  tracer : Span.tracer;
  recorder : Recorder.t;
  trace_id : string option;
}

let create ?(sink = Span.Null) ?recorder () =
  { registry = Registry.create ();
    tracer = Span.make sink;
    recorder =
      (match recorder with Some r -> r | None -> Recorder.null ());
    trace_id = None }

let null () = create ()
let with_recorder t recorder = { t with recorder }
let recorder t = t.recorder
let with_trace_id t tid = { t with trace_id = Some tid }
let trace_id t = t.trace_id

let counter t ?labels name = Registry.counter t.registry ?labels name
let gauge t ?labels name = Registry.gauge t.registry ?labels name

let histogram t ?base ?labels name =
  Registry.histogram t.registry ?base ?labels name

(* The trace attribute rides on every span the context opens, so one grep
   (or one Perfetto query) joins a request's spans with its qlog record
   and explain capture. Prepended only when a trace id is set — contexts
   without one (the default everywhere) build the attrs list untouched. *)
let with_span t ?attrs name f =
  let attrs =
    match t.trace_id with
    | None -> attrs
    | Some tid ->
      Some (("trace", Span.Str tid) :: Option.value ~default:[] attrs)
  in
  Span.with_span t.tracer ?attrs name f

let tracing t = Span.enabled t.tracer

let record t event = Recorder.record t.recorder event

(* Env packing: the util layer owns the extensible slot, this layer owns
   the only constructor. [of_env] on an unpacked env is the Null context —
   the same default every entry point used to apply to a missing [?ctx]. *)
type Monsoon_util.Env.ctx += Packed of t

let to_env ?(env = Monsoon_util.Env.default) t =
  Monsoon_util.Env.with_ctx env (Packed t)

let of_env (env : Monsoon_util.Env.t) =
  match env.Monsoon_util.Env.ctx with Packed t -> t | _ -> null ()
