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
  live_conns : int Atomic.t;
  mutable listen_fd : Unix.file_descr option;
  mutable bound_port : int option;
  mutable acceptor : Thread.t option;
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
    live_conns = Atomic.make 0;
    listen_fd = None;
    bound_port = None;
    acceptor = None }

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
                   anything the embedder packed into it — a telemetry
                   context, a profile collector — reaches every request. *)
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

let reason_of_code = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let http_response ?(extra_headers = []) ?(keep_alive = false) ~code
    ~content_type body =
  let headers =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) extra_headers)
  in
  Printf.sprintf
    "HTTP/1.1 %d %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     %sConnection: %s\r\n\
     \r\n\
     %s"
    code (reason_of_code code) content_type (String.length body) headers
    (if keep_alive then "keep-alive" else "close")
    body

let find_substring s needle =
  let n = String.length needle and m = String.length s in
  let rec go i =
    if i + n > m then None
    else if String.sub s i n = needle then Some i
    else go (i + 1)
  in
  go 0

let header_value headers name =
  String.split_on_char '\n' headers
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | None -> None
         | Some i ->
           let n = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
           if n = name then
             Some
               (String.trim
                  (String.sub line (i + 1) (String.length line - i - 1)))
           else None)

let content_length headers =
  Option.value ~default:0
    (Option.bind (header_value headers "content-length") int_of_string_opt)

(* Keep-alive is strictly opt-in: only a client that says
   [Connection: keep-alive] gets connection reuse; everything else
   (curl's default, the existing tests) keeps close semantics. *)
let wants_keep_alive headers =
  match header_value headers "connection" with
  | Some v -> String.lowercase_ascii v = "keep-alive"
  | None -> false

(* Reads request line + headers + (for POST) a Content-Length body.
   Bounded: 8 KiB of headers, 64 KiB of body — a query name plus slack.
   [Error] carries the reason for a 400 (a negative Content-Length). *)
let read_request fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec read_more stop =
    if not (stop (Buffer.contents buf)) then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        read_more stop
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_more stop
  in
  read_more (fun s ->
      String.length s > 8192 || find_substring s "\r\n\r\n" <> None);
  let raw = Buffer.contents buf in
  match find_substring raw "\r\n\r\n" with
  | None -> None
  | Some i ->
    let headers = String.sub raw 0 i in
    let body_start = i + 4 in
    let want = min (content_length headers) 65536 in
    if want < 0 then Some (Error "negative Content-Length")
    else begin
      read_more (fun s -> String.length s - body_start >= want);
      let raw = Buffer.contents buf in
      let have = String.length raw - body_start in
      let body = String.sub raw body_start (min want have) in
      match String.split_on_char ' ' (List.hd (String.split_on_char '\r' raw))
      with
      | meth :: target :: _ ->
        let path =
          match String.index_opt target '?' with
          | Some q -> String.sub target 0 q
          | None -> target
        in
        Some (Ok (meth, path, body, wants_keep_alive headers))
      | _ -> None
    end

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

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

let respond t ~keep_alive meth path body =
  let http_response ?extra_headers ~code ~content_type body =
    http_response ?extra_headers ~keep_alive ~code ~content_type body
  in
  match (meth, path) with
  | "POST", "/query" -> (
    match Json.of_string body with
    | Error msg ->
      http_response ~code:400 ~content_type:"text/plain"
        (Printf.sprintf "bad request body: %s\n" msg)
    | Ok j -> (
      match Option.bind (Json.member "query" j) Json.to_str with
      | None ->
        http_response ~code:400 ~content_type:"text/plain"
          "bad request body: expected {\"query\": NAME}\n"
      | Some qname ->
        let r = submit t qname in
        let extra_headers =
          ("X-Monsoon-Trace", r.rs_trace)
          ::
          (if r.rs_code = 429 then
             [ ("Retry-After", string_of_int (retry_after t)) ]
           else [])
        in
        http_response ~extra_headers ~code:r.rs_code
          ~content_type:"application/json"
          (Json.to_string (response_json r) ^ "\n")))
  | "GET", "/metrics" ->
    http_response ~code:200 ~content_type:Exporter.content_type
      (Exporter.render t.ctx.Ctx.registry)
  | "GET", "/healthz" ->
    http_response ~code:200 ~content_type:"text/plain" "ok\n"
  | "GET", "/snapshot.json" ->
    http_response ~code:200 ~content_type:"application/json"
      (Json.to_string (Snapshot.metrics_json t.ctx.Ctx.registry) ^ "\n")
  | "GET", "/slo" ->
    http_response ~code:200 ~content_type:"text/plain" (Slo.report t.slo_)
  | "GET", "/queries" ->
    http_response ~code:200 ~content_type:"application/json"
      (Json.to_string (Json.Arr (List.map (fun q -> Json.Str q) t.queries))
      ^ "\n")
  | "GET", p -> (
    match explain_target p with
    | Some id -> (
      match explain t id with
      | Some report ->
        http_response ~code:200 ~content_type:"text/plain" report
      | None ->
        http_response ~code:404 ~content_type:"text/plain"
          "no explain retained for that request id\n")
    | None ->
      http_response ~code:404 ~content_type:"text/plain" "not found\n")
  | _ -> http_response ~code:404 ~content_type:"text/plain" "not found\n"

let handle_conn t conn =
  let finally () =
    (try Unix.close conn with Unix.Unix_error _ -> ());
    Atomic.decr t.live_conns
  in
  Fun.protect ~finally (fun () ->
      Unix.setsockopt_float conn Unix.SO_RCVTIMEO 5.0;
      (* Loop while the client keeps the connection alive; an idle reused
         connection times out at SO_RCVTIMEO and closes cleanly. *)
      let rec serve_one () =
        match read_request conn with
        | Some (Ok (meth, path, body, keep_alive)) ->
          let keep_alive = keep_alive && not (Atomic.get t.stopped) in
          (match write_all conn (respond t ~keep_alive meth path body) with
          | () -> if keep_alive then serve_one ()
          | exception Unix.Unix_error _ -> ())
        | Some (Error reason) -> (
          try
            write_all conn
              (http_response ~code:400 ~content_type:"text/plain"
                 (Printf.sprintf "bad request: %s\n" reason))
          with Unix.Unix_error _ -> ())
        | None -> ()
      in
      serve_one ())

(* One thread per connection: a slow query must not head-of-line-block a
   /metrics scrape, and the admission queue — not the accept backlog — is
   where requests are meant to wait. *)
let rec accept_loop t fd =
  match Unix.accept fd with
  | conn, _ ->
    if Atomic.get t.stopped then (
      (try Unix.close conn with Unix.Unix_error _ -> ());
      ())
    else begin
      Atomic.incr t.live_conns;
      ignore (Thread.create (fun () -> try handle_conn t conn with _ -> ()) ());
      accept_loop t fd
    end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t fd
  | exception Unix.Unix_error (_, _, _) ->
    (* the listen socket was shut down by [stop] *)
    ()

let listen t ~port =
  if Atomic.get t.stopped then Error "server already stopped"
  else if t.listen_fd <> None then Error "server already listening"
  else
    match
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
         Unix.listen fd 64
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
    with
    | fd ->
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      t.listen_fd <- Some fd;
      t.bound_port <- Some bound;
      t.acceptor <- Some (Thread.create (accept_loop t) fd);
      Ok bound
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)

let port t =
  match t.bound_port with
  | Some p -> p
  | None -> invalid_arg "Server.port: not listening"

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (* 1. Stop accepting: shut the listener down and self-connect as a
       fallback wake (the accept loop sees [stopped] and exits), exactly
       the Monitor.stop dance. *)
    (match (t.listen_fd, t.bound_port) with
    | Some fd, bound ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (match bound with
      | Some p -> (
        try
          let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try Unix.connect c (Unix.ADDR_INET (Unix.inet_addr_loopback, p))
           with Unix.Unix_error _ -> ());
          try Unix.close c with Unix.Unix_error _ -> ()
        with Unix.Unix_error _ -> ())
      | None -> ());
      (match t.acceptor with Some th -> Thread.join th | None -> ());
      t.acceptor <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | None, _ -> ());
    t.listen_fd <- None;
    (* 2. Drain: every in-flight request finishes and releases its slot;
       queued waiters resolve 503 (shed, not crashed). *)
    Admission.drain t.adm;
    (* 3. Let connection threads flush their responses. Reads are bounded
       by SO_RCVTIMEO, so this terminates; the cap is belt and braces. *)
    let waited = ref 0.0 in
    while Atomic.get t.live_conns > 0 && !waited < 10.0 do
      Thread.delay 0.01;
      waited := !waited +. 0.01
    done;
    (* 4. Only now is the pool idle by construction. *)
    Pool.shutdown t.pool
  end
