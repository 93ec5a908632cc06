open Monsoon_util
open Monsoon_telemetry

type exec_outcome = {
  x_cost : float;
  x_timed_out : bool;
  x_degraded : bool;
  x_plan : string;
}

type handler_error = [ `Unknown_query of string | `Failed of string ]

type handler =
  id:int ->
  rng:Rng.t ->
  env:Env.t ->
  recorder:Recorder.t ->
  trace:string ->
  string ->
  (exec_outcome, handler_error) result

type config = {
  max_concurrent : int;
  queue_bound : int;
  request_timeout : float option;
  seed : int;
  explain_ring : int;
  latency_target : float;
  availability_target : float;
  slow_query : float option;
  qlog : Qlog.t option;
}

let default_config =
  { max_concurrent = 4;
    queue_bound = 16;
    request_timeout = Some 30.0;
    seed = 42;
    explain_ring = 64;
    latency_target = 1.0;
    availability_target = 0.99;
    slow_query = None;
    qlog = None }

type t = {
  config : config;
  ctx : Ctx.t;
  env : Env.t;  (* creation env; handler envs derive from it *)
  queries : string list;
  handler : handler;
  pool : Pool.t;
  adm : Admission.t;
  slo_ : Slo.t;
  next_id : int Atomic.t;
  explain_lock : Mutex.t;
  explains : (int * string) Queue.t;  (* oldest first, ≤ explain_ring *)
  slow_explains : (int * string) Queue.t;
      (* slow-query captures, retained outside the ring (≤ slow_retain) *)
  stopped : bool Atomic.t;
  mutable http : Http.t option;
}

let create ?(env = Env.default) ?(queries = []) config handler =
  if config.explain_ring < 0 then
    invalid_arg "Server.create: explain_ring must be >= 0";
  (match config.request_timeout with
  | Some s when s <= 0.0 ->
    invalid_arg "Server.create: request_timeout must be > 0"
  | _ -> ());
  let ctx = Ctx.of_env env in
  { config;
    ctx;
    env;
    queries;
    handler;
    pool = Pool.create config.max_concurrent;
    adm =
      Admission.create ~ctx ~max_concurrent:config.max_concurrent
        ~queue_bound:config.queue_bound ();
    slo_ =
      Slo.create ~ctx ~latency_target:config.latency_target
        ~availability_target:config.availability_target ();
    next_id = Atomic.make 0;
    explain_lock = Mutex.create ();
    explains = Queue.create ();
    slow_explains = Queue.create ();
    stopped = Atomic.make false;
    http = None }

let slo t = t.slo_
let queries t = t.queries
let admission t = t.adm
let requests t = Atomic.get t.next_id
let inject_kills t n = Pool.inject_kills t.pool n

(* --- explain ring --- *)

let store_explain t id ~trace recorder =
  if t.config.explain_ring > 0 && Recorder.events recorder <> [] then begin
    let rendered = Explain.report ~trace recorder in
    Mutex.lock t.explain_lock;
    Queue.push (id, rendered) t.explains;
    if Queue.length t.explains > t.config.explain_ring then
      ignore (Queue.pop t.explains);
    Mutex.unlock t.explain_lock
  end

(* Slow requests are the ones worth auditing after the fact, and exactly
   the ones a busy ring evicts fastest — so breaching the slow-query
   threshold pins the capture in its own bounded store. *)
let slow_retain = 256

let store_slow t id ~trace recorder =
  if Recorder.events recorder <> [] then begin
    let rendered = Explain.report ~trace recorder in
    Mutex.lock t.explain_lock;
    Queue.push (id, rendered) t.slow_explains;
    if Queue.length t.slow_explains > slow_retain then
      ignore (Queue.pop t.slow_explains);
    Mutex.unlock t.explain_lock
  end

let explain t id =
  let find q =
    Queue.fold (fun acc (i, r) -> if i = id then Some r else acc) None q
  in
  Mutex.lock t.explain_lock;
  let found =
    match find t.slow_explains with
    | Some _ as r -> r
    | None -> find t.explains
  in
  Mutex.unlock t.explain_lock;
  found

(* --- the request path --- *)

type response = {
  rs_id : int;
  rs_query : string;
  rs_trace : string;
  rs_outcome : Slo.outcome;
  rs_code : int;
  rs_cost : float;
  rs_latency : float;
  rs_queue_wait : float;
  rs_detail : string;
}

let submit t qname =
  let id = Atomic.fetch_and_add t.next_id 1 in
  let t0 = Timer.now () in
  (* Deterministic per-request identity from the same (seed, id) pair the
     request RNG derives from: two runs of a fixed workload mint the same
     trace ids, so their qlogs diff byte-stably. *)
  let trace =
    Printf.sprintf "t-%d-%08x" id (Hashtbl.hash (t.config.seed, id) land 0xffffffff)
  in
  (* The recorder exists before admission so even rejected requests reach
     [finish] with a (possibly empty) trajectory to audit. *)
  let recorder =
    if
      t.config.explain_ring > 0 || t.config.slow_query <> None
      || t.config.qlog <> None
    then Recorder.create ()
    else Recorder.null ()
  in
  let finish outcome code ~cost ~queue_wait ~detail =
    let latency = Timer.now () -. t0 in
    Slo.record t.slo_ ~klass:qname outcome ~latency ~queue_wait;
    (match t.config.slow_query with
    | Some threshold when latency >= threshold -> store_slow t id ~trace recorder
    | _ -> ());
    (match t.config.qlog with
    | None -> ()
    | Some qlog ->
      let plan = if code = 200 then detail else "" in
      let fail_detail = if code = 200 then "" else detail in
      Qlog.append qlog
        (Qlog.of_events ~trace ~query:qname ~strategy:"serve"
           ~outcome:(Slo.outcome_label outcome) ~latency ~queue_wait ~cost
           ~plan ~detail:fail_detail
           (Recorder.events recorder)));
    { rs_id = id;
      rs_query = qname;
      rs_trace = trace;
      rs_outcome = outcome;
      rs_code = code;
      rs_cost = cost;
      rs_latency = latency;
      rs_queue_wait = queue_wait;
      rs_detail = detail }
  in
  let deadline =
    match t.config.request_timeout with
    | None -> Deadline.none
    | Some s -> Deadline.after s
  in
  match Admission.admit ~deadline t.adm with
  | Admission.Rejected ->
    finish Slo.Rejected 429 ~cost:0.0 ~queue_wait:0.0 ~detail:"queue full"
  | Admission.Closed ->
    finish Slo.Rejected 503 ~cost:0.0 ~queue_wait:0.0 ~detail:"shutting down"
  | Admission.Timed_out ->
    finish Slo.Timed_out 504 ~cost:0.0 ~queue_wait:(Timer.now () -. t0)
      ~detail:"deadline expired in queue"
  | Admission.Admitted queue_wait ->
    Fun.protect
      ~finally:(fun () -> Admission.release t.adm)
      (fun () ->
        let rng = Rng.create (Hashtbl.hash (t.config.seed, id)) in
        let verdict =
          (* The handler runs on a pool worker domain; every exception is a
             request failure, never a server failure. *)
          match
            Pool.run t.pool (fun () ->
                (* The handler env derives from the creation env, so
                   the embedder's telemetry context and fault plan reach
                   every request. *)
                t.handler ~id ~rng
                  ~env:(Env.with_deadline t.env deadline)
                  ~recorder ~trace qname)
          with
          | Ok o -> `Done o
          | Error e -> `Err e
          | exception Deadline.Expired -> `Deadline
          | exception Fault.Injected reason ->
            `Err (`Failed ("fault injected: " ^ reason))
          | exception e -> `Err (`Failed (Printexc.to_string e))
        in
        store_explain t id ~trace recorder;
        match verdict with
        | `Done o when o.x_timed_out ->
          finish Slo.Timed_out 504 ~cost:o.x_cost ~queue_wait ~detail:o.x_plan
        | `Done o when o.x_degraded ->
          finish Slo.Degraded 200 ~cost:o.x_cost ~queue_wait ~detail:o.x_plan
        | `Done o ->
          finish Slo.Ok_ 200 ~cost:o.x_cost ~queue_wait ~detail:o.x_plan
        | `Deadline ->
          finish Slo.Timed_out 504 ~cost:0.0 ~queue_wait
            ~detail:"deadline expired"
        | `Err (`Unknown_query msg) ->
          finish Slo.Failed 404 ~cost:0.0 ~queue_wait ~detail:msg
        | `Err (`Failed msg) ->
          finish Slo.Failed 500 ~cost:0.0 ~queue_wait ~detail:msg)

let response_json r =
  Json.Obj
    [ ("id", Json.Num (float_of_int r.rs_id));
      ("query", Json.Str r.rs_query);
      ("trace", Json.Str r.rs_trace);
      ("status", Json.Str (Slo.outcome_label r.rs_outcome));
      ("code", Json.Num (float_of_int r.rs_code));
      ("cost", Json.Num r.rs_cost);
      ("latency_s", Json.Num r.rs_latency);
      ("queue_wait_s", Json.Num r.rs_queue_wait);
      ("detail", Json.Str r.rs_detail) ]

(* --- HTTP front end --- *)

(* GET /query/ID/explain *)
let explain_target path =
  match String.split_on_char '/' path with
  | [ ""; "query"; id; "explain" ] -> int_of_string_opt id
  | _ -> None

(* Retry-After from what the server actually observes: with [q] requests
   already queued and [slots] workers draining them at the mean observed
   latency, a retry earlier than ceil(mean * (q+1) / slots) seconds just
   rejoins the same full queue. Clamped to [1, 60]; before any request
   has finished (mean 0) the floor keeps the old behavior of "1". *)
let retry_after t =
  let queued = Admission.queued t.adm in
  let slots = max 1 t.config.max_concurrent in
  let mean = Slo.mean_latency t.slo_ in
  let est = ceil (mean *. float_of_int (queued + 1) /. float_of_int slots) in
  max 1 (min 60 (int_of_float est))

(* The server's own routes; [Http.serve] answers the telemetry routes and
   404 for everything else. *)
let respond t (req : Http.request) =
  let json ?(headers = []) code body =
    { Http.code; content_type = "application/json"; headers; body }
  in
  match (req.meth, req.path) with
  | "POST", "/query" ->
    Some
      (match Json.of_string req.body with
      | Error msg -> Http.text 400 ("bad request body: " ^ msg ^ "\n")
      | Ok j -> (
        match Option.bind (Json.member "query" j) Json.to_str with
        | None ->
          Http.text 400 "bad request body: expected {\"query\": NAME}\n"
        | Some qname ->
          let r = submit t qname in
          let headers =
            ("X-Monsoon-Trace", r.rs_trace)
            ::
            (if r.rs_code = 429 then
               [ ("Retry-After", string_of_int (retry_after t)) ]
             else [])
          in
          json ~headers r.rs_code (Json.to_string (response_json r) ^ "\n")))
  | "GET", "/slo" -> Some (Http.text 200 (Slo.report t.slo_))
  | "GET", "/queries" ->
    Some
      (json 200
         (Json.to_string (Json.Arr (List.map (fun q -> Json.Str q) t.queries))
         ^ "\n"))
  | "GET", path ->
    Option.map
      (fun id ->
        match explain t id with
        | Some report -> Http.text 200 report
        | None -> Http.text 404 "no explain retained for that request id\n")
      (explain_target path)
  | _ -> None

let listen t ~port =
  if Atomic.get t.stopped then Error "server already stopped"
  else if t.http <> None then Error "server already listening"
  else
    Result.map
      (fun h ->
        t.http <- Some h;
        Http.port h)
      (Http.serve ~registry:t.ctx.Ctx.registry ~port (respond t))

let port t =
  match t.http with
  | Some h -> Http.port h
  | None -> invalid_arg "Server.port: not listening"

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (* Stop accepting; drain, so every in-flight request finishes and
       queued waiters resolve 503 (shed, not crashed); let connection
       threads flush their responses. Only then is the pool idle by
       construction. *)
    let drain () = Admission.drain t.adm in
    (match t.http with Some h -> Http.stop ~drain h | None -> drain ());
    Pool.shutdown t.pool
  end
