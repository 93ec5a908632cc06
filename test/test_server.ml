open Monsoon_util
open Monsoon_server
open Monsoon_telemetry

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let check_contains what haystack needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %S" what needle)
    true (contains haystack needle)

let gauge_value ctx name = Metric.Gauge.value (Ctx.gauge ctx name)

(* --- admission --- *)

let test_admission_basics () =
  let ctx = Ctx.null () in
  let a = Admission.create ~ctx ~max_concurrent:2 ~queue_bound:1 () in
  (match Admission.admit ~deadline:Deadline.none a with
  | Admission.Admitted w -> Alcotest.(check (float 0.0)) "no wait" 0.0 w
  | _ -> Alcotest.fail "first admit should be immediate");
  (match Admission.admit ~deadline:Deadline.none a with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "second admit should be immediate");
  Alcotest.(check int) "in flight" 2 (Admission.in_flight a);
  Alcotest.(check (float 0.0)) "in-flight gauge" 2.0
    (gauge_value ctx "server.in_flight");
  (* Third request queues; it lands once a slot frees. *)
  let third = ref None in
  let th = Thread.create (fun () -> third := Some (Admission.admit ~deadline:Deadline.none a)) () in
  let rec wait_queued n =
    if Admission.queued a < 1 && n > 0 then begin
      Thread.delay 0.005;
      wait_queued (n - 1)
    end
  in
  wait_queued 400;
  Alcotest.(check int) "queued" 1 (Admission.queued a);
  Alcotest.(check (float 0.0)) "queue-depth gauge" 1.0
    (gauge_value ctx "server.queue_depth");
  (* Fourth request finds the queue at its bound. *)
  (match Admission.admit ~deadline:Deadline.none a with
  | Admission.Rejected -> ()
  | _ -> Alcotest.fail "queue full should reject");
  Admission.release a;
  Thread.join th;
  (match !third with
  | Some (Admission.Admitted w) ->
    Alcotest.(check bool) "queue wait measured" true (w >= 0.0)
  | _ -> Alcotest.fail "queued request should be admitted on release");
  Admission.release a;
  Admission.release a;
  Admission.drain a;
  Alcotest.(check int) "drained" 0 (Admission.in_flight a);
  Alcotest.(check (float 0.0)) "queue-depth gauge drained" 0.0
    (gauge_value ctx "server.queue_depth");
  Alcotest.(check (float 0.0)) "in-flight gauge drained" 0.0
    (gauge_value ctx "server.in_flight");
  match Admission.admit ~deadline:Deadline.none a with
  | Admission.Closed -> ()
  | _ -> Alcotest.fail "admit after drain should be Closed"

let test_admission_deadline () =
  let a = Admission.create ~max_concurrent:1 ~queue_bound:4 () in
  (match Admission.admit ~deadline:Deadline.none a with
  | Admission.Admitted _ -> ()
  | _ -> Alcotest.fail "first admit");
  (* Deadline already expired on entry: no queueing. *)
  let d = Deadline.after 0.001 in
  Thread.delay 0.01;
  (match Admission.admit ~deadline:d a with
  | Admission.Timed_out -> ()
  | _ -> Alcotest.fail "expired deadline should time out on entry");
  (* A queued waiter whose deadline trips resolves Timed_out at the next
     slot handoff, and the handoff is not lost: a second waiter without a
     deadline takes the slot. *)
  let first = ref None and second = ref None in
  let t1 =
    Thread.create
      (fun () -> first := Some (Admission.admit ~deadline:(Deadline.after 0.02) a))
      ()
  in
  Thread.delay 0.05;
  let t2 = Thread.create (fun () -> second := Some (Admission.admit ~deadline:Deadline.none a)) () in
  Thread.delay 0.05;
  Admission.release a;
  Thread.join t1;
  Thread.join t2;
  (match !first with
  | Some Admission.Timed_out -> ()
  | _ -> Alcotest.fail "tripped deadline in queue should be Timed_out");
  (match !second with
  | Some (Admission.Admitted _) -> ()
  | _ -> Alcotest.fail "handoff should pass to the live waiter");
  Admission.release a;
  Admission.drain a

(* --- SLO accounting --- *)

let record_fixture slo =
  List.iter
    (fun (o, l, qw) -> Slo.record slo o ~latency:l ~queue_wait:qw)
    [ (Slo.Ok_, 0.5, 0.0);
      (Slo.Ok_, 0.9, 0.1);
      (Slo.Degraded, 1.5, 0.5);
      (Slo.Timed_out, 2.5, 1.0);
      (Slo.Failed, 0.25, 0.0);
      (Slo.Rejected, 0.001, 0.0) ]

let test_slo_counts () =
  let ctx = Ctx.null () in
  let slo = Slo.create ~ctx () in
  record_fixture slo;
  let c = Slo.counts slo in
  Alcotest.(check int) "total" 6 c.Slo.total;
  Alcotest.(check int) "ok" 2 c.Slo.ok;
  Alcotest.(check int) "degraded" 1 c.Slo.degraded;
  Alcotest.(check int) "rejected" 1 c.Slo.rejected;
  Alcotest.(check int) "timed out" 1 c.Slo.timed_out;
  Alcotest.(check int) "failed" 1 c.Slo.failed;
  (* The same numbers are on the registry for /metrics. *)
  let counter n = Metric.Counter.value (Ctx.counter ctx n) in
  Alcotest.(check (float 0.0)) "server.requests" 6.0 (counter "server.requests");
  Alcotest.(check (float 0.0)) "server.rejected" 1.0 (counter "server.rejected")

let test_slo_report_golden () =
  let slo = Slo.create ~latency_target:1.0 ~availability_target:0.75 () in
  record_fixture slo;
  let expected =
    "SLO report (6 requests)\n\n\
     Outcomes\n\
     \  Outcome   Count  Share \n\
     \  --------  -----  ------\n\
     \  ok        2      33.33%\n\
     \  degraded  1      16.67%\n\
     \  rejected  1      16.67%\n\
     \  timeout   1      16.67%\n\
     \  error     1      16.67%\n\n\
     Latency (log-bucketed: quantiles are bucket upper bounds)\n\
     \  Metric      p50  p95  p99  Max \n\
     \  ----------  ---  ---  ---  ----\n\
     \  latency     1s   4s   4s   2.5s\n\
     \  queue wait  0s   2s   2s   1s  \n\n\
     Objectives\n\
     \  Objective     Target  Achieved  Status      \n\
     \  ------------  ------  --------  ------------\n\
     \  p95 latency   1s      4s        MISSED      \n\
     \  availability  75.00%  50.00%    MISSED      \n\
     \  error budget  25.00%  50.00%    spent 200.0%\n"
  in
  Alcotest.(check string) "byte-stable report" expected (Slo.report slo);
  Alcotest.(check string) "empty report" "SLO report: no requests recorded\n"
    (Slo.report (Slo.create ()))

let test_slo_per_class () =
  let ctx = Ctx.null () in
  let slo = Slo.create ~ctx () in
  Slo.record slo ~klass:"iq7" Slo.Ok_ ~latency:0.5 ~queue_wait:0.0;
  Slo.record slo ~klass:"iq7" Slo.Timed_out ~latency:2.0 ~queue_wait:0.0;
  Slo.record slo ~klass:"iq1" Slo.Ok_ ~latency:0.1 ~queue_wait:0.0;
  let report = Slo.report slo in
  check_contains "report" report "Per-class outcomes and latency";
  (* Sorted by class: iq1 before iq7. *)
  let pos needle =
    let rec go i =
      if i + String.length needle > String.length report then -1
      else if String.sub report i (String.length needle) = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "classes sorted" true (pos "iq1" < pos "iq7");
  (* The labeled instruments are on the registry, so /metrics exports
     per-class series. *)
  let labeled =
    Metric.Counter.value
      (Ctx.counter ctx ~labels:[ ("class", "iq7") ] "server.requests")
  in
  Alcotest.(check (float 0.0)) "labeled counter" 2.0 labeled;
  check_contains "exporter" (Exporter.render ctx.Ctx.registry)
    "monsoon_server_requests_total{class=\"iq7\"} 2";
  Alcotest.(check (float 0.0)) "mean latency"
    ((0.5 +. 2.0 +. 0.1) /. 3.0)
    (Slo.mean_latency slo)

(* Zero-observation edges: a report over no requests and an exporter
   render over an empty histogram must not divide by zero, and must be
   byte-stable. *)
let test_slo_zero_observations () =
  let slo = Slo.create () in
  Alcotest.(check string) "no requests" "SLO report: no requests recorded\n"
    (Slo.report slo);
  Alcotest.(check (float 0.0)) "mean latency of nothing" 0.0
    (Slo.mean_latency slo)

(* --- the server core, on a synthetic handler --- *)

let synthetic_handler ~id:_ ~rng:_ ~env:_ ~recorder ~trace:_ qname =
  let ok = { Server.x_cost = 1.0; x_timed_out = false; x_degraded = false; x_plan = "p" } in
  match qname with
  | "fast" -> Ok ok
  | "slow" ->
    Thread.delay 0.1;
    Ok ok
  | "note" ->
    (* A Degraded event renders in Explain.report's degradation table, so
       the stored capture is observable end to end. *)
    Recorder.record recorder
      (Recorder.Degraded { step = 0; reason = "served"; fallback = "p" });
    Ok ok
  | "slownote" ->
    (* Slow AND recorded: the case the slow-query retention store exists
       for. *)
    Thread.delay 0.06;
    Recorder.record recorder
      (Recorder.Degraded { step = 0; reason = "served slowly"; fallback = "p" });
    Ok ok
  | "huge" ->
    (* Long enough for the caller to hang up first; a plan too big for
       one write(2). *)
    Thread.delay 0.1;
    Ok { ok with Server.x_plan = String.make 200_000 'p' }
  | "degraded" -> Ok { ok with Server.x_degraded = true }
  | "overrun" -> Ok { ok with Server.x_timed_out = true }
  | "boom" -> failwith "kaboom"
  | "fail" -> Error (`Failed "handler says no")
  | other -> Error (`Unknown_query (Printf.sprintf "unknown query %S" other))

let make_server ?(ctx = Ctx.null ()) ?(config = Server.default_config) () =
  Server.create ~env:(Ctx.to_env ctx)
    ~queries:[ "fast"; "slow"; "note"; "degraded" ]
    config synthetic_handler

let test_submit_outcomes () =
  let config =
    { Server.default_config with
      Server.max_concurrent = 2;
      request_timeout = None;
      explain_ring = 4 }
  in
  let t = make_server ~config () in
  let code q = (Server.submit t q).Server.rs_code in
  Alcotest.(check int) "ok" 200 (code "fast");
  Alcotest.(check int) "degraded is a success" 200 (code "degraded");
  Alcotest.(check int) "budget overrun" 504 (code "overrun");
  Alcotest.(check int) "handler exception" 500 (code "boom");
  Alcotest.(check int) "handler failure" 500 (code "fail");
  Alcotest.(check int) "unknown query" 404 (code "nope");
  let c = Slo.counts (Server.slo t) in
  Alcotest.(check int) "total" 6 c.Slo.total;
  Alcotest.(check int) "ok" 1 c.Slo.ok;
  Alcotest.(check int) "degraded" 1 c.Slo.degraded;
  Alcotest.(check int) "timeout" 1 c.Slo.timed_out;
  Alcotest.(check int) "error" 3 c.Slo.failed;
  Server.stop t;
  (* After stop every submit resolves 503 and counts as shed. *)
  Alcotest.(check int) "post-stop" 503 (code "fast");
  Alcotest.(check int) "post-stop rejected" 1
    (Slo.counts (Server.slo t)).Slo.rejected

(* An audit record that cannot be written is served all the same and
   counted on /metrics: the qlog here is a full device. *)
let test_qlog_lines_failed_on_metrics () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let ctx = Ctx.create ~sink:Span.Null () in
  Monitor.preregister ctx.Ctx.registry;
  check_contains "preregistered" (Exporter.render ctx.Ctx.registry)
    "monsoon_qlog_lines_failed_total 0";
  let qlog =
    match Qlog.create "/dev/full" with Ok q -> q | Error e -> Alcotest.fail e
  in
  let t =
    make_server ~ctx
      ~config:{ Server.default_config with Server.qlog = Some qlog }
      ()
  in
  Alcotest.(check int) "served" 200 (Server.submit t "fast").Server.rs_code;
  Alcotest.(check int) "served" 200 (Server.submit t "fast").Server.rs_code;
  Server.stop t;
  Qlog.close qlog;
  Alcotest.(check int) "qlog counted both" 2 (Qlog.failed qlog);
  check_contains "exposition" (Exporter.render ctx.Ctx.registry)
    "monsoon_qlog_lines_failed_total 2"

let test_explain_ring () =
  let config =
    { Server.default_config with Server.request_timeout = None; explain_ring = 2 }
  in
  let t = make_server ~config () in
  let r1 = Server.submit t "note" in
  let r2 = Server.submit t "note" in
  let r3 = Server.submit t "note" in
  (* "fast" records nothing, so nothing is stored for it. *)
  let r4 = Server.submit t "fast" in
  (match Server.explain t r3.Server.rs_id with
  | Some report -> check_contains "explain" report "served"
  | None -> Alcotest.fail "explain of a recent request should be retained");
  Alcotest.(check bool) "ring evicts oldest" true
    (Server.explain t r1.Server.rs_id = None);
  Alcotest.(check bool) "second still present" true
    (Server.explain t r2.Server.rs_id <> None);
  Alcotest.(check bool) "event-free request stores nothing" true
    (Server.explain t r4.Server.rs_id = None);
  Server.stop t

let test_slow_query_retention () =
  let config =
    { Server.default_config with
      Server.request_timeout = None;
      explain_ring = 1;
      slow_query = Some 0.05 }
  in
  let t = make_server ~config () in
  let slow = Server.submit t "slownote" in
  Alcotest.(check bool) "trace id minted" true
    (String.length slow.Server.rs_trace > 0);
  (* Churn the one-slot ring well past the slow request. *)
  let r2 = Server.submit t "note" in
  let r3 = Server.submit t "note" in
  Alcotest.(check bool) "ring evicted the older capture" true
    (Server.explain t r2.Server.rs_id = None);
  Alcotest.(check bool) "latest still in ring" true
    (Server.explain t r3.Server.rs_id <> None);
  (match Server.explain t slow.Server.rs_id with
  | Some report ->
    check_contains "slow capture" report "served slowly";
    (* The capture carries the same trace id the response reported. *)
    check_contains "slow capture trace" report
      ("trace " ^ slow.Server.rs_trace)
  | None -> Alcotest.fail "slow request should be retained outside the ring");
  (* Fast requests do not hit the slow store: evicted ones stay evicted. *)
  Server.stop t;
  (* Determinism: the trace id derives from (seed, id), so an identical
     server mints the identical id for request 0. *)
  let t2 = make_server ~config () in
  let slow2 = Server.submit t2 "slownote" in
  Server.stop t2;
  Alcotest.(check string) "trace ids deterministic" slow.Server.rs_trace
    slow2.Server.rs_trace

let test_worker_kills () =
  let config =
    { Server.default_config with
      Server.max_concurrent = 2;
      queue_bound = 64;
      request_timeout = None }
  in
  let t = make_server ~config () in
  Server.inject_kills t 2;
  let codes = Array.make 20 0 in
  let threads =
    List.init 4 (fun c ->
        Thread.create
          (fun () ->
            for i = 0 to 4 do
              codes.((c * 5) + i) <- (Server.submit t "fast").Server.rs_code
            done)
          ())
  in
  List.iter Thread.join threads;
  Server.stop t;
  Array.iter (fun c -> Alcotest.(check int) "all served" 200 c) codes;
  Alcotest.(check int) "all counted" 20 (Slo.counts (Server.slo t)).Slo.total

(* --- HTTP front end: hammer + overload --- *)

let http_request port req =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      in
      go ();
      Buffer.contents buf)

let http_get port path =
  http_request port
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path)

let http_post port path body =
  http_request port
    (Printf.sprintf
       "POST %s HTTP/1.1\r\n\
        Host: localhost\r\n\
        Content-Type: application/json\r\n\
        Content-Length: %d\r\n\
        \r\n\
        %s"
       path (String.length body) body)

let status_of response =
  match String.split_on_char ' ' response with
  | _ :: code :: _ -> int_of_string code
  | _ -> Alcotest.failf "unparseable response %S" response

(* Full-read check: the advertised Content-Length matches the body. *)
let assert_complete what response =
  let idx =
    let rec find i =
      if i + 4 > String.length response then
        Alcotest.failf "%s: no header terminator" what
      else if String.sub response i 4 = "\r\n\r\n" then i
      else find (i + 1)
    in
    find 0
  in
  let headers = String.sub response 0 idx in
  let body = String.sub response (idx + 4) (String.length response - idx - 4) in
  let want =
    String.split_on_char '\n' headers
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i
             when String.lowercase_ascii (String.trim (String.sub line 0 i))
                  = "content-length" ->
             int_of_string_opt
               (String.trim
                  (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)
  in
  match want with
  | None -> Alcotest.failf "%s: no Content-Length" what
  | Some w ->
    Alcotest.(check int) (what ^ ": complete body") w (String.length body);
    body

let test_http_hammer () =
  let ctx = Ctx.null () in
  let config =
    { Server.default_config with
      Server.max_concurrent = 2;
      queue_bound = 4;
      request_timeout = None;
      explain_ring = 0 }
  in
  let t = make_server ~ctx ~config () in
  match Server.listen t ~port:0 with
  | Error e -> Alcotest.fail e
  | Ok port ->
    Alcotest.(check int) "port accessor" port (Server.port t);
    let n_threads = 8 and per_thread = 6 in
    let rejected_seen = Atomic.make 0 in
    let worker i =
      for k = 0 to per_thread - 1 do
        if (i + k) mod 3 = 0 then begin
          let resp = http_get port "/metrics" in
          Alcotest.(check int) "metrics scrape" 200 (status_of resp);
          ignore (assert_complete "metrics" resp)
        end
        else begin
          let resp = http_post port "/query" {|{"query": "slow"}|} in
          let body = assert_complete "query" resp in
          match status_of resp with
          | 200 -> check_contains "query body" body "\"status\":\"ok\""
          | 429 ->
            Atomic.incr rejected_seen;
            check_contains "429 advises retry" resp "Retry-After: 1"
          | other -> Alcotest.failf "unexpected status %d" other
        end
      done
    in
    let threads = List.init n_threads (fun i -> Thread.create worker i) in
    List.iter Thread.join threads;
    Server.stop t;
    let c = Slo.counts (Server.slo t) in
    Alcotest.(check int) "client 429s equal server.rejected"
      (Atomic.get rejected_seen) c.Slo.rejected;
    Alcotest.(check int) "every query accounted" (c.Slo.ok + c.Slo.rejected)
      c.Slo.total;
    (* The occupancy gauges return to zero after the drain. *)
    Alcotest.(check (float 0.0)) "queue-depth gauge" 0.0
      (gauge_value ctx "server.queue_depth");
    Alcotest.(check (float 0.0)) "in-flight gauge" 0.0
      (gauge_value ctx "server.in_flight")

let test_http_overload_and_endpoints () =
  let ctx = Ctx.null () in
  let config =
    { Server.default_config with
      Server.max_concurrent = 1;
      queue_bound = 0;
      request_timeout = None;
      explain_ring = 0 }
  in
  let t = make_server ~ctx ~config () in
  match Server.listen t ~port:0 with
  | Error e -> Alcotest.fail e
  | Ok port ->
    let statuses = Array.make 6 0 in
    let threads =
      List.init 6 (fun i ->
          Thread.create
            (fun () ->
              statuses.(i) <-
                status_of (http_post port "/query" {|{"query": "slow"}|}))
            ())
    in
    List.iter Thread.join threads;
    let count v = Array.to_list statuses |> List.filter (( = ) v) |> List.length in
    Alcotest.(check bool) "some served" true (count 200 >= 1);
    Alcotest.(check bool) "overload sheds 429s" true (count 429 >= 1);
    Alcotest.(check int) "nothing lost" 6 (count 200 + count 429);
    let c = Slo.counts (Server.slo t) in
    Alcotest.(check int) "server.rejected matches" (count 429) c.Slo.rejected;
    (* The sibling endpoints under load. *)
    check_contains "/queries" (http_get port "/queries") "\"fast\"";
    check_contains "/slo" (http_get port "/slo") "SLO report";
    check_contains "/healthz" (http_get port "/healthz") "ok";
    check_contains "/metrics" (http_get port "/metrics")
      "monsoon_server_requests_total";
    Alcotest.(check int) "bad body" 400
      (status_of (http_post port "/query" "not json"));
    Alcotest.(check int) "missing field" 400
      (status_of (http_post port "/query" "{}"));
    Alcotest.(check int) "unknown path" 404 (status_of (http_get port "/nope"));
    Server.stop t;
    Alcotest.(check int) "connection refused after stop" (-1)
      (try status_of (http_get port "/healthz") with Unix.Unix_error _ -> -1)

let test_http_negative_content_length () =
  let t = make_server () in
  match Server.listen t ~port:0 with
  | Error e -> Alcotest.fail e
  | Ok port ->
    let resp =
      http_request port
        "POST /query HTTP/1.1\r\n\
         Host: localhost\r\n\
         Content-Length: -5\r\n\
         \r\n"
    in
    Alcotest.(check int) "negative Content-Length is a 400" 400
      (status_of resp);
    ignore (assert_complete "400 response" resp);
    Alcotest.(check int) "server still answers" 200
      (status_of (http_get port "/healthz"));
    Server.stop t

(* --- HTTP framing: bad input, pipelining, hang-ups --- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let read_to_eof fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ();
  Buffer.contents buf

let occurrences s needle =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let with_listening ?ctx f =
  let t = make_server ?ctx () in
  match Server.listen t ~port:0 with
  | Error e -> Alcotest.fail e
  | Ok port -> Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f port)

let test_http_bad_json_escape () =
  with_listening @@ fun port ->
  let resp = http_post port "/query" {|{"query": "\uZZZZ"}|} in
  Alcotest.(check int) "bad \\u escape is a 400" 400 (status_of resp);
  check_contains "reason" (assert_complete "400 response" resp)
    "bad request body"

let test_http_pipelined () =
  with_listening @@ fun port ->
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let req =
        "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n\
         GET /queries HTTP/1.1\r\nHost: x\r\n\r\n"
      in
      Http.write_all fd req;
      let resp = read_to_eof fd in
      Alcotest.(check int) "both pipelined requests answered" 2
        (occurrences resp "HTTP/1.1 200 OK");
      check_contains "second response" resp "\"fast\"")

let test_http_oversized_body () =
  with_listening @@ fun port ->
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Http.write_all fd
        "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 100000\r\n\r\n";
      let resp = read_to_eof fd in
      Alcotest.(check int) "over 64 KiB is a 413" 413 (status_of resp);
      check_contains "413" resp "Connection: close";
      ignore (assert_complete "413 response" resp));
  Alcotest.(check int) "server still answers" 200
    (status_of (http_get port "/healthz"))

let reset_close fd =
  Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
  Unix.close fd

let await_counter c want =
  let rec go polls =
    if Metric.Counter.value c < want && polls > 0 then begin
      Thread.delay 0.01;
      go (polls - 1)
    end
  in
  go 300;
  Metric.Counter.value c

let test_http_client_hangup () =
  let ctx = Ctx.null () in
  with_listening ~ctx @@ fun port ->
  let fd = connect port in
  let body = {|{"query":"huge"}|} in
  Http.write_all fd
    (Printf.sprintf "POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
       (String.length body) body);
  Unix.close fd;
  let errors = Ctx.counter ctx "http.conn_errors" in
  Alcotest.(check (float 0.0)) "dropped response counted" 1.0
    (await_counter errors 1.0);
  Alcotest.(check int) "process alive, server still answers" 200
    (status_of (http_get port "/healthz"))

let test_http_conn_errors () =
  let ctx = Ctx.null () in
  with_listening ~ctx @@ fun port ->
  let fd = connect port in
  Http.write_all fd "GET /healthz HTTP/1.1\r\nHo";
  Thread.delay 0.05;
  reset_close fd;
  let errors = Ctx.counter ctx "http.conn_errors" in
  Alcotest.(check (float 0.0)) "reset connection counted" 1.0
    (await_counter errors 1.0);
  Alcotest.(check int) "server still answers" 200
    (status_of (http_get port "/healthz"));
  check_contains "/metrics" (http_get port "/metrics")
    "monsoon_http_conn_errors_total 1"

(* --- load client + load generator --- *)

let test_load_client_in_process () =
  let t = make_server () in
  let client = Load_client.in_process t in
  (match Load_client.query client "fast" with
  | Ok o ->
    Alcotest.(check string) "status" "ok" o.Load_client.o_status;
    Alcotest.(check int) "code" 200 o.Load_client.o_code
  | Error e -> Alcotest.fail e);
  (match Load_client.queries client with
  | Ok qs -> Alcotest.(check (list string)) "advertised"
      [ "fast"; "slow"; "note"; "degraded" ] qs
  | Error e -> Alcotest.fail e);
  (match Load_client.slo_report client with
  | Ok r -> check_contains "slo report" r "SLO report (1 requests)"
  | Error e -> Alcotest.fail e);
  Server.stop t

let test_load_client_http () =
  let t = make_server () in
  match Server.listen t ~port:0 with
  | Error e -> Alcotest.fail e
  | Ok port ->
    let client = Load_client.http ~port () in
    (match Load_client.query client "degraded" with
    | Ok o ->
      Alcotest.(check string) "status" "degraded" o.Load_client.o_status;
      Alcotest.(check int) "code" 200 o.Load_client.o_code
    | Error e -> Alcotest.fail e);
    (match Load_client.queries client with
    | Ok qs -> Alcotest.(check int) "four queries" 4 (List.length qs)
    | Error e -> Alcotest.fail e);
    Server.stop t;
    match Load_client.query client "fast" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "query after stop should be a transport error"

let test_load_client_keep_alive () =
  let t = make_server () in
  match Server.listen t ~port:0 with
  | Error e -> Alcotest.fail e
  | Ok port ->
    let client = Load_client.http ~port () in
    for _ = 1 to 10 do
      match Load_client.query client "fast" with
      | Ok o -> Alcotest.(check int) "served" 200 o.Load_client.o_code
      | Error e -> Alcotest.fail e
    done;
    (* Keep-alive reuse: ten requests over one TCP connection. *)
    Alcotest.(check int) "one connection for ten requests" 1
      (Load_client.connections client);
    Server.stop t;
    (* The pooled connection is dead after stop; the client reconnects,
       fails, and reports a transport error instead of hanging. *)
    (match Load_client.query client "fast" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "query after stop should be a transport error")

let test_http_trace_header_and_keep_alive_optin () =
  let config = { Server.default_config with Server.request_timeout = None } in
  let t = make_server ~config () in
  match Server.listen t ~port:0 with
  | Error e -> Alcotest.fail e
  | Ok port ->
    (* Default clients (no Connection header) keep close semantics: the
       read-to-EOF in [http_request] terminating at all proves the server
       closed the connection. *)
    let resp = http_post port "/query" {|{"query": "fast"}|} in
    let body = assert_complete "query" resp in
    check_contains "close by default" resp "Connection: close";
    check_contains "trace header" resp "X-Monsoon-Trace: t-0-";
    check_contains "trace in body" body "\"trace\":\"t-0-";
    Server.stop t

let lg_config = { Monsoon_harness.Loadgen.arrival = Monsoon_harness.Loadgen.Closed 3;
                  stop = Monsoon_harness.Loadgen.Requests 30;
                  seed = 7 }

let test_loadgen_schedule () =
  let open Monsoon_harness in
  let queries = [ "a"; "b"; "c" ] in
  let s1 = Loadgen.schedule lg_config ~queries in
  let s2 = Loadgen.schedule lg_config ~queries in
  Alcotest.(check int) "length" 30 (List.length s1);
  Alcotest.(check bool) "deterministic" true (s1 = s2);
  List.iter
    (fun (i, c, q) ->
      Alcotest.(check int) "round robin" (i mod 3) c;
      Alcotest.(check bool) "known query" true (List.mem q queries))
    s1;
  (* A different seed lays out a different query sequence. *)
  let s3 = Loadgen.schedule { lg_config with Loadgen.seed = 8 } ~queries in
  Alcotest.(check bool) "seed-sensitive" true (s1 <> s3)

let fingerprint_counts samples =
  List.sort compare
    (List.map
       (fun q ->
         ( q,
           List.length
             (List.filter
                (fun s -> s.Monsoon_harness.Loadgen.s_query = q)
                samples) ))
       [ "fast"; "slow"; "note"; "degraded" ])

let run_closed_once () =
  let open Monsoon_harness in
  let config =
    { Server.default_config with
      Server.max_concurrent = 2;
      request_timeout = None;
      explain_ring = 0 }
  in
  let t = make_server ~config () in
  let result =
    Loadgen.run (Load_client.in_process t) lg_config
      ~queries:[ "fast"; "slow"; "note"; "degraded" ]
  in
  Server.stop t;
  result

let test_loadgen_closed_loop_deterministic () =
  let open Monsoon_harness in
  let r1 = run_closed_once () in
  let r2 = run_closed_once () in
  let shape r =
    List.map
      (fun s ->
        (s.Loadgen.s_index, s.Loadgen.s_client, s.Loadgen.s_query,
         s.Loadgen.s_status))
      r.Loadgen.samples
  in
  Alcotest.(check int) "all issued" 30 (List.length r1.Loadgen.samples);
  (* The determinism contract: ordering, client assignment, query choice
     and outcome are byte-stable run to run. *)
  Alcotest.(check bool) "byte-stable shape" true (shape r1 = shape r2);
  Alcotest.(check bool) "byte-stable fingerprint counts" true
    (fingerprint_counts r1.Loadgen.samples
    = fingerprint_counts r2.Loadgen.samples);
  List.iter
    (fun s ->
      let want = if s.Loadgen.s_query = "degraded" then "degraded" else "ok" in
      Alcotest.(check string) "status tracks query" want s.Loadgen.s_status)
    r1.Loadgen.samples

let test_loadgen_open_loop_and_json () =
  let open Monsoon_harness in
  let config =
    { Server.default_config with
      Server.max_concurrent = 2;
      queue_bound = 64;
      request_timeout = None;
      explain_ring = 0 }
  in
  let t = make_server ~config () in
  let lg =
    { Loadgen.arrival = Loadgen.Open 300.0;
      stop = Loadgen.Requests 20;
      seed = 11 }
  in
  let result =
    Loadgen.run (Load_client.in_process t) lg ~queries:[ "fast"; "note" ]
  in
  Server.stop t;
  Alcotest.(check int) "all issued" 20 (List.length result.Loadgen.samples);
  List.iteri
    (fun i s -> Alcotest.(check int) "issue order" i s.Loadgen.s_index)
    result.Loadgen.samples;
  let text = Loadgen.report result in
  check_contains "report" text "Per-fingerprint breakdown";
  check_contains "report" text "TOTAL";
  check_contains "report" text "fast";
  (match Loadgen.to_json result with
  | Json.Obj _ as j ->
    Alcotest.(check (option int)) "json request count" (Some 20)
      (Option.bind (Json.member "requests" j) Json.to_int);
    (* The JSON report round-trips through the parser. *)
    (match Json.of_string (Json.to_string j) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "to_json should be an object")

(* --- end to end: the real Monsoon handler under faults --- *)

let test_end_to_end_service_chaos () =
  let open Monsoon_harness in
  let profile = Experiments.quick in
  (* The IMDB suite has no opaque terms, so the plan faults hash-join
     builds (one draw per join). At this rate the degradation ladder
     absorbs every fault on the fallback plan; at higher rates the
     fallback faults too and the request legitimately reports 500 (the
     suite harness retries those; the server does not). One closed-loop
     client keeps request-id assignment (hence per-request fault streams)
     deterministic, so the outcome set is pinned, not probabilistic. *)
  let faults =
    match Fault.spec_of_string "build:0.05,worker:1" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match Experiments.service profile ~experiment:"imdb" ~faults () with
  | Error e -> Alcotest.fail e
  | Ok (handler, names) ->
    Alcotest.(check bool) "suite advertised" true (List.length names > 0);
    let config =
      { Server.default_config with
        Server.max_concurrent = 2;
        queue_bound = 16;
        request_timeout = None;
        explain_ring = 0;
        seed = profile.Experiments.seed }
    in
    let t = Server.create ~queries:names config handler in
    Server.inject_kills t 1;
    let lg =
      { Loadgen.arrival = Loadgen.Closed 1;
        stop = Loadgen.Requests 8;
        seed = 42 }
    in
    let result = Loadgen.run (Load_client.in_process t) lg ~queries:names in
    Server.stop t;
    Alcotest.(check int) "all issued" 8 (List.length result.Loadgen.samples);
    (* Chaos must degrade requests, not fail them: every sample served. *)
    List.iter
      (fun s ->
        Alcotest.(check bool)
          (Printf.sprintf "%s served (%s)" s.Loadgen.s_query
             s.Loadgen.s_status)
          true
          (List.mem s.Loadgen.s_status [ "ok"; "degraded" ]))
      result.Loadgen.samples;
    let degraded =
      List.length
        (List.filter
           (fun s -> s.Loadgen.s_status = "degraded")
           result.Loadgen.samples)
    in
    Alcotest.(check bool) "chaos visibly degraded some requests" true
      (degraded >= 1);
    let c = Slo.counts (Server.slo t) in
    Alcotest.(check int) "accounted" 8 (c.Slo.ok + c.Slo.degraded)

let () =
  Alcotest.run "server"
    [ ( "admission",
        [ Alcotest.test_case "slots, queue, reject, drain" `Quick
            test_admission_basics;
          Alcotest.test_case "deadlines in the queue" `Quick
            test_admission_deadline ] );
      ( "slo",
        [ Alcotest.test_case "counts and registry" `Quick test_slo_counts;
          Alcotest.test_case "golden report" `Quick test_slo_report_golden;
          Alcotest.test_case "per-class rows and labels" `Quick
            test_slo_per_class;
          Alcotest.test_case "zero observations" `Quick
            test_slo_zero_observations ] );
      ( "server",
        [ Alcotest.test_case "submit outcome mapping" `Quick
            test_submit_outcomes;
          Alcotest.test_case "explain ring" `Quick test_explain_ring;
          Alcotest.test_case "qlog lines failed on /metrics" `Quick
            test_qlog_lines_failed_on_metrics;
          Alcotest.test_case "slow-query retention" `Quick
            test_slow_query_retention;
          Alcotest.test_case "worker kills" `Quick test_worker_kills ] );
      ( "http",
        [ Alcotest.test_case "concurrent hammer" `Quick test_http_hammer;
          Alcotest.test_case "overload and endpoints" `Quick
            test_http_overload_and_endpoints;
          Alcotest.test_case "negative Content-Length" `Quick
            test_http_negative_content_length;
          Alcotest.test_case "trace header, close by default" `Quick
            test_http_trace_header_and_keep_alive_optin;
          Alcotest.test_case "bad \\u escape" `Quick test_http_bad_json_escape;
          Alcotest.test_case "pipelined requests" `Quick test_http_pipelined;
          Alcotest.test_case "oversized body" `Quick test_http_oversized_body;
          Alcotest.test_case "client hang-up mid-response" `Quick
            test_http_client_hangup;
          Alcotest.test_case "connection errors counted" `Quick
            test_http_conn_errors ] );
      ( "load",
        [ Alcotest.test_case "client in process" `Quick
            test_load_client_in_process;
          Alcotest.test_case "client over http" `Quick test_load_client_http;
          Alcotest.test_case "client keep-alive reuse" `Quick
            test_load_client_keep_alive;
          Alcotest.test_case "schedule determinism" `Quick
            test_loadgen_schedule;
          Alcotest.test_case "closed loop determinism" `Quick
            test_loadgen_closed_loop_deterministic;
          Alcotest.test_case "open loop + json" `Quick
            test_loadgen_open_loop_and_json ] );
      ( "end-to-end",
        [ Alcotest.test_case "monsoon service under chaos" `Quick
            test_end_to_end_service_chaos ] ) ]
