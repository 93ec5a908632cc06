open Monsoon_telemetry
open Monsoon_server

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let check_contains what haystack needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %S" what needle)
    true (contains haystack needle)

(* --- Prometheus exposition --- *)

let test_metric_names () =
  Alcotest.(check string) "counter name" "monsoon_driver_steps_total"
    (Exporter.metric_name ~counter:true "driver.steps");
  Alcotest.(check string) "gauge name" "monsoon_pool_queued"
    (Exporter.metric_name "pool.queued");
  Alcotest.(check string) "no double _total" "monsoon_runner_cells_total"
    (Exporter.metric_name ~counter:true "runner.cells_total");
  Alcotest.(check string) "odd characters sanitized" "monsoon_a_b_c"
    (Exporter.metric_name "a-b c");
  Alcotest.(check string) "label escaping" "a\\\"b\\nc\\\\d"
    (Exporter.escape_label "a\"b\nc\\d")

let test_exposition_golden () =
  let reg = Registry.create () in
  Metric.Counter.add (Registry.counter reg "driver.steps") 5.0;
  let h = Registry.histogram reg "exec.latency" in
  List.iter (Metric.Histogram.observe h) [ 1.0; 1.5; 3.0 ];
  Metric.Gauge.set
    (Registry.gauge reg ~labels:[ ("worker", "a\"b\nc\\d") ] "pool.queued")
    2.0;
  let expected =
    String.concat "\n"
      [ "# HELP monsoon_driver_steps_total Monsoon metric driver_steps";
        "# TYPE monsoon_driver_steps_total counter";
        "monsoon_driver_steps_total 5";
        "# HELP monsoon_exec_latency Monsoon metric exec_latency";
        "# TYPE monsoon_exec_latency histogram";
        "monsoon_exec_latency_bucket{le=\"2\"} 2";
        "monsoon_exec_latency_bucket{le=\"4\"} 3";
        "monsoon_exec_latency_bucket{le=\"+Inf\"} 3";
        "monsoon_exec_latency_sum 5.5";
        "monsoon_exec_latency_count 3";
        "# TYPE monsoon_exec_latency_quantile gauge";
        "monsoon_exec_latency_quantile{quantile=\"0.5\"} 2";
        "monsoon_exec_latency_quantile{quantile=\"0.95\"} 4";
        "monsoon_exec_latency_quantile{quantile=\"0.99\"} 4";
        "# HELP monsoon_pool_queued Monsoon metric pool_queued";
        "# TYPE monsoon_pool_queued gauge";
        "monsoon_pool_queued{worker=\"a\\\"b\\nc\\\\d\"} 2";
        "" ]
  in
  Alcotest.(check string) "byte-stable exposition" expected
    (Exporter.render reg);
  (* A second render is byte-identical: ordering is deterministic. *)
  Alcotest.(check string) "stable across scrapes" expected
    (Exporter.render reg)

let test_exposition_underflow_and_labels () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "driver.q_error" in
  Metric.Histogram.observe h (-1.0);
  Metric.Histogram.observe h 1.0;
  let c_a = Registry.counter reg ~labels:[ ("strategy", "a") ] "runner.cells" in
  let c_b = Registry.counter reg ~labels:[ ("strategy", "b") ] "runner.cells" in
  Metric.Counter.add c_a 1.0;
  Metric.Counter.add c_b 2.0;
  let text = Exporter.render reg in
  check_contains "render" text "monsoon_driver_q_error_bucket{le=\"0\"} 1";
  check_contains "render" text "monsoon_driver_q_error_count 2";
  (* One TYPE header covers both labeled series. *)
  check_contains "render" text
    "monsoon_runner_cells_total{strategy=\"a\"} 1\n\
     monsoon_runner_cells_total{strategy=\"b\"} 2";
  let type_lines =
    String.split_on_char '\n' text
    |> List.filter (fun l ->
           String.starts_with ~prefix:"# TYPE monsoon_runner_cells_total" l)
  in
  Alcotest.(check int) "single TYPE header per family" 1
    (List.length type_lines)

(* --- Perfetto trace events --- *)

let events_of_json json =
  match Json.member "traceEvents" json with
  | Some (Json.Arr events) -> events
  | _ -> Alcotest.fail "missing traceEvents array"

let field name ev =
  match Json.member name ev with
  | Some v -> v
  | None -> Alcotest.failf "event missing %S" name

let str_field name ev =
  match Json.to_str (field name ev) with
  | Some s -> s
  | None -> Alcotest.failf "event field %S not a string" name

let int_field name ev =
  match Json.to_int (field name ev) with
  | Some i -> i
  | None -> Alcotest.failf "event field %S not an int" name

let test_perfetto_roundtrip_and_balance () =
  let collector = Trace_event.create () in
  let tr = Span.make (Trace_event.sink collector) in
  Span.with_span tr "root" (fun _ ->
      Span.with_span tr "child"
        ~attrs:[ ("n", Span.Int 3) ]
        (fun _ -> ());
      Span.with_span tr "sibling" (fun _ -> ()));
  let other =
    Domain.spawn (fun () -> Span.with_span tr "other" (fun _ -> ()))
  in
  Domain.join other;
  (* The serialized trace parses back. *)
  let json =
    match Json.of_string (Trace_event.to_string collector) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let events = events_of_json json in
  let is_meta ev = str_field "ph" ev = "M" in
  let be_events = List.filter (fun ev -> not (is_meta ev)) events in
  (* Spans ran on two domains: two tids, each with a thread_name event. *)
  let tids = List.sort_uniq compare (List.map (int_field "tid") be_events) in
  Alcotest.(check int) "two domains traced" 2 (List.length tids);
  Alcotest.(check int) "one metadata event per tid" 2
    (List.length (List.filter is_meta events));
  List.iter
    (fun ev ->
      Alcotest.(check string) "category" "monsoon" (str_field "cat" ev))
    (List.filter (fun ev -> str_field "ph" ev = "B") be_events);
  (* Per tid: replay with a stack — B pushes, E must close the top; the
     sequence must be timestamp-ordered and end with an empty stack. *)
  List.iter
    (fun tid ->
      let seq =
        List.filter (fun ev -> int_field "tid" ev = tid) be_events
      in
      let stack = ref [] in
      let last_ts = ref neg_infinity in
      List.iter
        (fun ev ->
          let ts =
            match Json.to_float (field "ts" ev) with
            | Some t -> t
            | None -> Alcotest.fail "ts not a number"
          in
          Alcotest.(check bool) "timestamps non-decreasing" true
            (ts >= !last_ts);
          last_ts := ts;
          match str_field "ph" ev with
          | "B" -> stack := str_field "name" ev :: !stack
          | "E" -> (
            match !stack with
            | top :: rest ->
              Alcotest.(check string) "E closes the innermost B" top
                (str_field "name" ev);
              stack := rest
            | [] -> Alcotest.fail "E with empty stack")
          | ph -> Alcotest.failf "unexpected ph %S" ph)
        seq;
      Alcotest.(check int) "balanced per tid" 0 (List.length !stack))
    tids;
  (* Attributes ride on the B event's args. *)
  let child_b =
    List.find
      (fun ev -> str_field "ph" ev = "B" && str_field "name" ev = "child")
      be_events
  in
  match Json.member "n" (field "args" child_b) with
  | Some n -> Alcotest.(check (option int)) "args.n" (Some 3) (Json.to_int n)
  | None -> Alcotest.fail "child B event lost its args"

(* --- Sampler, ring, diff report --- *)

let gcless ~time probes =
  { Monitor.s_time = time;
    s_minor_words = 0.0;
    s_promoted_words = 0.0;
    s_major_words = 0.0;
    s_minor_collections = 0;
    s_major_collections = 0;
    s_compactions = 0;
    s_heap_words = 0;
    s_probes = probes }

let probe key kind v =
  { Monitor.p_key = key; p_kind = kind; p_value = v }

let test_sample_now () =
  let reg = Registry.create () in
  Metric.Counter.add (Registry.counter reg "driver.steps") 4.0;
  Metric.Gauge.set (Registry.gauge reg "pool.queued") 7.0;
  Metric.Histogram.observe (Registry.histogram reg "exec.latency") 2.0;
  let s = Monitor.sample_now reg in
  let value key =
    match
      List.find_opt (fun p -> p.Monitor.p_key = key) s.Monitor.s_probes
    with
    | Some p -> p.Monitor.p_value
    | None -> Alcotest.failf "probe %S missing" key
  in
  Alcotest.(check (float 0.0)) "counter probe" 4.0 (value "driver.steps");
  Alcotest.(check (float 0.0)) "gauge probe" 7.0 (value "pool.queued");
  Alcotest.(check (float 0.0)) "histogram count probe" 1.0
    (value "exec.latency.count");
  Alcotest.(check (float 0.0)) "histogram sum probe" 2.0
    (value "exec.latency.sum");
  Alcotest.(check bool) "timestamped" true (s.Monitor.s_time > 0.0)

let test_diff_report () =
  let a =
    gcless ~time:10.0
      [ probe "driver.steps" Monitor.Cumulative 0.0;
        probe "pool.queued" Monitor.Level 5.0;
        probe "idle.counter" Monitor.Cumulative 3.0 ]
  in
  let b =
    gcless ~time:12.0
      [ probe "driver.steps" Monitor.Cumulative 100.0;
        probe "pool.queued" Monitor.Level 3.0;
        probe "idle.counter" Monitor.Cumulative 3.0 ]
  in
  let report = Monitor.diff_report a b in
  check_contains "report" report "driver.steps";
  check_contains "report" report "50";
  (* rate: 100 / 2s *)
  check_contains "report" report "pool.queued";
  check_contains "report" report "-2";
  check_contains "report" report "GC";
  Alcotest.(check bool) "unmoved metrics dropped" false
    (contains report "idle.counter");
  (* top=1 keeps only the biggest mover. *)
  let top1 = Monitor.diff_report ~top:1 a b in
  check_contains "top1" top1 "driver.steps";
  Alcotest.(check bool) "top=1 drops the smaller mover" false
    (contains top1 "pool.queued");
  let line = Monitor.tick_line a b in
  check_contains "tick line" line "driver.steps";
  check_contains "tick line" line "50";
  Alcotest.(check bool) "tick line skips gauges" false
    (contains line "pool.queued")

let test_sampler_ring_and_stop () =
  let reg = Registry.create () in
  let ticks = Atomic.make 0 in
  let m =
    Monitor.create ~interval:0.01 ~ring:3
      ~on_tick:(fun _ -> Atomic.incr ticks)
      reg
  in
  (* Let it tick well past the ring size. *)
  Unix.sleepf 0.15;
  Monitor.stop m;
  let n = Atomic.get ticks in
  Alcotest.(check bool) "ticked more than the ring holds" true (n > 3);
  let samples = Monitor.samples m in
  Alcotest.(check bool) "ring bounded" true (List.length samples <= 3);
  Alcotest.(check bool) "ring retains samples" true (List.length samples >= 2);
  (* The monitor's own liveness counter advanced and was sampled. *)
  (match Monitor.latest m with
  | None -> Alcotest.fail "no latest sample"
  | Some s ->
    let tick_probe =
      List.find_opt
        (fun p -> p.Monitor.p_key = "monitor.ticks")
        s.Monitor.s_probes
    in
    Alcotest.(check bool) "monitor.ticks sampled" true
      (match tick_probe with
      | Some p -> p.Monitor.p_value >= 3.0
      | None -> false));
  (* Samples are time-ordered, oldest first. *)
  let times = List.map (fun s -> s.Monitor.s_time) samples in
  Alcotest.(check bool) "oldest first" true
    (List.sort compare times = times);
  (* Stop is idempotent. *)
  Monitor.stop m

(* --- HTTP endpoints --- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path
      in
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

let body_of response =
  let rec find i =
    if i + 4 > String.length response then response
    else if String.sub response i 4 = "\r\n\r\n" then
      String.sub response (i + 4) (String.length response - i - 4)
    else find (i + 1)
  in
  find 0

let test_http_endpoints () =
  let reg = Registry.create () in
  Monitor.preregister reg;
  Metric.Counter.add (Registry.counter reg "driver.steps") 9.0;
  let m = Monitor.create ~interval:0.05 reg in
  match Http.serve ~registry:reg ~port:0 (fun _ -> None) with
  | Error e -> Alcotest.fail e
  | Ok http ->
    let port = Http.port http in
    Alcotest.(check bool) "ephemeral port" true (port > 0);
    let health = http_get port "/healthz" in
    check_contains "healthz" health "HTTP/1.1 200";
    check_contains "healthz" health "ok";
    let metrics = http_get port "/metrics" in
    check_contains "metrics" metrics "HTTP/1.1 200";
    check_contains "metrics" metrics Exporter.content_type;
    check_contains "metrics" metrics "monsoon_driver_steps_total 9";
    (* preregister makes never-touched metrics visible at zero. *)
    check_contains "metrics" metrics "monsoon_runner_cells_total 0";
    check_contains "metrics" metrics "monsoon_pool_queued 0";
    let snapshot = http_get port "/snapshot.json" in
    check_contains "snapshot" snapshot "HTTP/1.1 200";
    (match Json.of_string (body_of snapshot) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "snapshot.json does not parse: %s" e);
    let missing = http_get port "/nope" in
    check_contains "unknown path" missing "HTTP/1.1 404";
    Http.stop http;
    Monitor.stop m;
    (* At least the initial and the final tick landed. *)
    Alcotest.(check bool) "samples recorded" true
      (List.length (Monitor.samples m) >= 2)

(* An idle keep-alive client must not hold up anyone else's scrape. *)
let test_http_idle_client () =
  let reg = Registry.create () in
  match Http.serve ~registry:reg ~port:0 (fun _ -> None) with
  | Error e -> Alcotest.fail e
  | Ok http ->
    let port = Http.port http in
    let idle = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close idle with Unix.Unix_error _ -> ());
        Http.stop http)
      (fun () ->
        Unix.connect idle (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.sleepf 0.05;
        let t0 = Unix.gettimeofday () in
        check_contains "healthz" (http_get port "/healthz") "HTTP/1.1 200";
        let took = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool)
          (Printf.sprintf "/healthz within 1 s of an idle client (%.2fs)" took)
          true (took < 1.0))

let () =
  Alcotest.run "monitor"
    [ ( "exporter",
        [ Alcotest.test_case "metric names & escaping" `Quick
            test_metric_names;
          Alcotest.test_case "golden exposition" `Quick test_exposition_golden;
          Alcotest.test_case "underflow bucket & label families" `Quick
            test_exposition_underflow_and_labels ] );
      ( "perfetto",
        [ Alcotest.test_case "round-trip & B/E balance" `Quick
            test_perfetto_roundtrip_and_balance ] );
      ( "sampler",
        [ Alcotest.test_case "sample_now probes" `Quick test_sample_now;
          Alcotest.test_case "diff report & tick line" `Quick
            test_diff_report;
          Alcotest.test_case "ring bound & stop" `Quick
            test_sampler_ring_and_stop ] );
      ( "http",
        [ Alcotest.test_case "endpoints" `Quick test_http_endpoints;
          Alcotest.test_case "idle client does not block" `Quick
            test_http_idle_client ] ) ]
