open Monsoon_baselines
open Monsoon_workloads
open Monsoon_harness
open Monsoon_telemetry
open Monsoon_server

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i =
    i + n <= m && (String.sub s i n = sub || go (i + 1))
  in
  n = 0 || go 0

let tmp_qlog () = Filename.temp_file "monsoon_qlog" ".jsonl"

let writer ?max_bytes path =
  match Qlog.create ?max_bytes path with
  | Ok w -> w
  | Error e -> Alcotest.fail e

(* --- Deriving a record from a recorded trajectory --- *)

let node q =
  { Recorder.node_expr = "R |><| S";
    node_mask = 3;
    node_depth = 0;
    node_predicted = Some 10.0;
    node_observed = Some 20.0;
    node_q_error = q;
    node_profile = None }

let decision step =
  Recorder.Decision
    { step;
      state_key = "k";
      legal_actions = 4;
      chosen = "join";
      selection = "uct(w=1.41)";
      root_visits = 10;
      plan_seconds = 0.001;
      candidates = [] }

let trajectory =
  [ Recorder.Query_start { query = "iq7"; n_rels = 3; state_key = "k" };
    decision 0;
    Recorder.Executed
      { step = 1;
        nodes = [ node (Some 3.0); node (Some 8.0); node None ];
        cost = 40.0;
        timed_out = false };
    decision 2;
    Recorder.Degraded { step = 3; reason = "udf"; fallback = "seq scan" };
    Recorder.Query_finish
      { steps = 5; cost = 123.0; timed_out = false; result_card = 7.0 } ]

let test_of_events_derivation () =
  let r =
    Qlog.of_events ~trace:"t-0-cafe" ~query:"iq7" ~strategy:"serve"
      ~outcome:"degraded" ~latency:0.5 ~queue_wait:0.1 trajectory
  in
  Alcotest.(check string) "trace" "t-0-cafe" r.Qlog.r_trace;
  Alcotest.(check int) "steps from Query_finish" 5 r.Qlog.r_steps;
  Alcotest.(check (float 0.0)) "cost from Query_finish" 123.0 r.Qlog.r_cost;
  Alcotest.(check (float 0.0)) "result card" 7.0 r.Qlog.r_result_card;
  Alcotest.(check int) "replans = Decision count" 2 r.Qlog.r_replans;
  Alcotest.(check int) "executes" 1 r.Qlog.r_executes;
  Alcotest.(check int) "degraded" 1 r.Qlog.r_degraded;
  Alcotest.(check (list string)) "fault detail" [ "udf -> seq scan" ]
    r.Qlog.r_fault_detail;
  Alcotest.(check (option (float 0.0))) "worst q-error" (Some 8.0)
    r.Qlog.r_worst_q_error

let test_of_events_empty () =
  (* The path for outcomes that never reached a recorder (e.g. a
     rejected request): arguments fill in, derived fields stay zero. *)
  let r =
    Qlog.of_events ~trace:"t" ~query:"q" ~strategy:"serve"
      ~outcome:"rejected" ~latency:0.0 ~queue_wait:0.2 ~cost:9.0
      ~result_card:2.0 ~detail:"queue full" []
  in
  Alcotest.(check (float 0.0)) "cost from argument" 9.0 r.Qlog.r_cost;
  Alcotest.(check (float 0.0)) "card from argument" 2.0 r.Qlog.r_result_card;
  Alcotest.(check int) "no steps" 0 r.Qlog.r_steps;
  Alcotest.(check int) "no replans" 0 r.Qlog.r_replans;
  Alcotest.(check (option (float 0.0))) "nothing predicted" None
    r.Qlog.r_worst_q_error;
  Alcotest.(check string) "detail kept" "queue full" r.Qlog.r_detail

let test_json_roundtrip () =
  let roundtrip r =
    match Json.of_string (Json.to_string (Qlog.to_json r)) with
    | Error e -> Alcotest.fail ("reparse: " ^ e)
    | Ok j -> (
      match Qlog.of_json j with
      | Error e -> Alcotest.fail ("of_json: " ^ e)
      | Ok r' -> Alcotest.(check bool) "round-trips" true (r = r'))
  in
  roundtrip
    (Qlog.of_events ~trace:"t-0-cafe" ~query:"iq7" ~strategy:"serve"
       ~outcome:"ok" ~latency:0.25 ~queue_wait:0.0 ~plan:"R |><| S"
       trajectory);
  (* worst_q_error None must survive as JSON null *)
  roundtrip
    (Qlog.of_events ~trace:"t" ~query:"q" ~strategy:"runner" ~outcome:"error"
       ~latency:0.0 ~queue_wait:0.0 ~detail:"kaboom" [])

(* --- The bounded writer --- *)

let test_writer_rotation_and_load () =
  let path = tmp_qlog () in
  let w = writer ~max_bytes:4096 path in
  let record i =
    Qlog.of_events ~trace:(Printf.sprintf "t-%d" i) ~query:"iq7"
      ~strategy:"serve" ~outcome:"ok" ~latency:0.1 ~queue_wait:0.0
      ~plan:(String.make 120 'p') trajectory
  in
  for i = 0 to 39 do
    Alcotest.(check bool) "appended" true (Qlog.append w (record i))
  done;
  Qlog.close w;
  (* close is idempotent and appends after close are counted as failed *)
  Qlog.close w;
  Alcotest.(check bool) "append after close fails" false
    (Qlog.append w (record 99));
  Alcotest.(check int) "failed append counted" 1 (Qlog.failed w);
  let rotated = path ^ ".1" in
  Alcotest.(check bool) "rotated file exists" true (Sys.file_exists rotated);
  let load p =
    match Qlog.load p with Ok rs -> rs | Error e -> Alcotest.fail e
  in
  let live = load path and old_ = load rotated in
  Alcotest.(check bool) "live file bounded" true (List.length live < 40);
  Alcotest.(check bool) "rotation kept the previous generation" true
    (List.length old_ > 0);
  (* The newest record always lands in the live file — rotation drops
     the oldest generations, never the tail. *)
  Alcotest.(check bool) "latest record in live file" true
    (List.exists (fun r -> r.Qlog.r_trace = "t-39") live);
  List.iter
    (fun r -> Alcotest.(check string) "records intact" "iq7" r.Qlog.r_query)
    (live @ old_);
  Sys.remove path;
  Sys.remove rotated

(* Any rejected line refuses the file, and the error names how many were
   rejected and the first one: here a blank line, then a record torn by a
   crash mid-append. *)
let test_load_refuses_rejected_lines () =
  let path = tmp_qlog () in
  let w = writer path in
  let record =
    Qlog.of_events ~trace:"t-1" ~query:"iq7" ~strategy:"serve" ~outcome:"ok"
      ~latency:0.1 ~queue_wait:0.0 trajectory
  in
  ignore (Qlog.append w record : bool);
  ignore (Qlog.append w record : bool);
  Qlog.close w;
  (match Qlog.load path with
  | Ok rs -> Alcotest.(check int) "two records" 2 (List.length rs)
  | Error e -> Alcotest.fail e);
  let line = Json.to_string (Qlog.to_json record) in
  Out_channel.with_open_gen [ Open_append ] 0o644 path (fun oc ->
      output_string oc ("\n" ^ String.sub line 0 (String.length line / 2)));
  (match Qlog.load path with
  | Ok _ -> Alcotest.fail "a qlog with rejected lines loaded"
  | Error e ->
    Alcotest.(check string) "names the count and the first line"
      "qlog: 2 rejected lines; line 3: blank line" e);
  Sys.remove path

(* Nothing is buffered: a record is in the file as soon as [append]
   returns, so [monsoon qlog] on a live server's file sees every request
   served so far, and a process that dies loses no audit tail. *)
let test_record_readable_before_close () =
  let path = tmp_qlog () in
  let w = writer path in
  let record =
    Qlog.of_events ~trace:"t-live" ~query:"iq7" ~strategy:"serve"
      ~outcome:"ok" ~latency:0.1 ~queue_wait:0.0 trajectory
  in
  Alcotest.(check bool) "appended" true (Qlog.append w record);
  (match Qlog.load path with
  | Ok [ r ] -> Alcotest.(check string) "the record" "t-live" r.Qlog.r_trace
  | Ok rs -> Alcotest.failf "expected one record, got %d" (List.length rs)
  | Error e -> Alcotest.fail e);
  Qlog.close w;
  Sys.remove path

(* --- Aggregation --- *)

let rec_ ?(outcome = "ok") ?(latency = 0.1) ?(cost = 10.0) ?(trace = "t")
    query =
  Qlog.of_events ~trace ~query ~strategy:"serve" ~outcome ~latency
    ~queue_wait:0.0 ~cost []

let test_report_content () =
  let records =
    [ rec_ ~trace:"t1" ~cost:10.0 "iq1";
      rec_ ~trace:"t2" ~cost:30.0 ~latency:0.9 "iq1";
      rec_ ~trace:"t3" ~outcome:"timeout" ~cost:5.0 "iq7" ]
  in
  let report = Qlog.report records in
  Alcotest.(check bool) "header" true
    (contains report "Query log: 3 records over 2 classes");
  Alcotest.(check bool) "has iq1 row" true (contains report "iq1");
  Alcotest.(check bool) "has iq7 row" true (contains report "iq7");
  (* The same multiset of records renders identically regardless of
     append order — parallel producers must not change the report. *)
  Alcotest.(check string) "append-order independent" report
    (Qlog.report (List.rev records))

let test_diff_identical_runs () =
  let run latency =
    [ rec_ ~trace:"a" ~latency ~cost:10.0 "iq1";
      rec_ ~trace:"b" ~latency:(latency *. 3.0) ~cost:20.0 "iq7" ]
  in
  (* Latency differs wildly between the runs; the deterministic fields
     are identical, so the diff is clean — and byte-stable. *)
  let report, regressions = Qlog.diff_report ~old_:(run 0.1) (run 2.5) in
  Alcotest.(check int) "no regressions" 0 regressions;
  Alcotest.(check bool) "says zero" true (contains report "0 regressions");
  let report', _ = Qlog.diff_report ~old_:(run 0.4) (run 1.9) in
  Alcotest.(check string) "byte-stable" report report'

let test_diff_detects_regression () =
  let old_ = [ rec_ ~cost:10.0 "iq1"; rec_ ~cost:10.0 "iq7" ] in
  let new_ = [ rec_ ~cost:30.0 "iq1"; rec_ ~cost:10.0 "iq7" ] in
  let report, regressions = Qlog.diff_report ~old_ new_ in
  Alcotest.(check int) "one regression" 1 regressions;
  Alcotest.(check bool) "marked" true (contains report "REGRESSED");
  (* A lost class is categorically worse. *)
  let _, lost = Qlog.diff_report ~old_ [ rec_ ~cost:10.0 "iq1" ] in
  Alcotest.(check int) "lost class regresses" 1 lost;
  (* New timeouts regress even at equal cost. *)
  let _, to_ =
    Qlog.diff_report ~old_
      [ rec_ ~cost:10.0 "iq1"; rec_ ~outcome:"timeout" ~cost:10.0 "iq7" ]
  in
  Alcotest.(check int) "new timeout regresses" 1 to_

(* --- Trace correlation end to end ---

   One served request must leave three artifacts joined on one key: the
   qlog record, the retained explain capture, and the emitted spans. *)

let test_trace_correlation () =
  let buf = Span.memory_buffer () in
  let profile =
    { Experiments.quick with
      Experiments.ctx = Ctx.create ~sink:(Span.Memory buf) () }
  in
  match Experiments.service profile ~experiment:"imdb" () with
  | Error e -> Alcotest.fail e
  | Ok (handler, names) ->
    let path = tmp_qlog () in
    let w = writer path in
    let config =
      { Server.default_config with
        Server.request_timeout = None;
        explain_ring = 4;
        qlog = Some w;
        seed = profile.Experiments.seed }
    in
    let t = Server.create ~queries:names config handler in
    let qname = List.hd names in
    let r = Server.submit t qname in
    Server.stop t;
    Qlog.close w;
    Alcotest.(check int) "served" 200 r.Server.rs_code;
    (match Qlog.load path with
     | Error e -> Alcotest.fail e
     | Ok [ q ] ->
       Alcotest.(check string) "qlog joins on trace" r.Server.rs_trace
         q.Qlog.r_trace;
       Alcotest.(check string) "query name" qname q.Qlog.r_query;
       Alcotest.(check string) "strategy" "serve" q.Qlog.r_strategy;
       Alcotest.(check (float 0.0)) "cost agrees" r.Server.rs_cost
         q.Qlog.r_cost
     | Ok l ->
       Alcotest.fail (Printf.sprintf "expected 1 record, got %d"
                        (List.length l)));
    (match Server.explain t r.Server.rs_id with
     | None -> Alcotest.fail "no explain capture"
     | Some report ->
       Alcotest.(check bool) "explain names the trace" true
         (contains report ("trace " ^ r.Server.rs_trace)));
    let tagged =
      List.filter
        (fun (s : Span.t) ->
          List.exists
            (fun (k, v) -> k = "trace" && v = Span.Str r.Server.rs_trace)
            s.Span.attrs)
        (Span.buffer_spans buf)
    in
    Alcotest.(check bool) "spans carry the trace attr" true
      (List.length tagged > 0);
    Sys.remove path

(* --- The Runner as a producer --- *)

let fingerprint (rows : Runner.row list) =
  List.map
    (fun (r : Runner.row) ->
      ( r.Runner.strategy,
        List.map
          (fun (c : Runner.cell) ->
            ( c.Runner.query,
              c.Runner.error,
              c.Runner.attempts,
              Option.map
                (fun (o : Strategy.outcome) ->
                  ( o.Strategy.cost, o.Strategy.timed_out,
                    o.Strategy.stats_cost, o.Strategy.result_card,
                    o.Strategy.plan ))
                c.Runner.outcome ))
          r.Runner.cells ))
    rows

let test_runner_qlog_differential () =
  let w = Tpch.workload { Tpch.seed = 11; scale = 0.05; skew = Tpch.Plain } in
  let strategies =
    [ Strategy.defaults;
      Strategy.monsoon ~iterations:60 ~scale_with_size:false
        Monsoon_stats.Prior.spike_and_slab ]
  in
  let config qlog =
    { Runner.default_config with
      Runner.budget = 1e6;
      seed = 11;
      queries = Some [ "tq1"; "tq2" ];
      qlog }
  in
  let bare = Runner.run_suite (config None) strategies w in
  let path = tmp_qlog () in
  let wtr = writer path in
  let audited = Runner.run_suite (config (Some wtr)) strategies w in
  Qlog.close wtr;
  (* The headline property: auditing must not change the run. *)
  Alcotest.(check bool) "rows identical with and without qlog" true
    (fingerprint bare = fingerprint audited);
  (match Qlog.load path with
   | Error e -> Alcotest.fail e
   | Ok records ->
     Alcotest.(check int) "one record per cell attempt" 4
       (List.length records);
     List.iter
       (fun r ->
         Alcotest.(check bool)
           (r.Qlog.r_trace ^ " uses the runner trace scheme") true
           (String.length r.Qlog.r_trace > 2
           && String.sub r.Qlog.r_trace 0 2 = "r-");
         Alcotest.(check string) "outcome ok" "ok" r.Qlog.r_outcome;
         Alcotest.(check bool) "cost recorded" true (r.Qlog.r_cost > 0.0))
       records;
     (* Runner trace ids derive from (seed, strategy, query, attempt):
        distinct cells, distinct ids. *)
     let traces =
       List.sort_uniq compare
         (List.map (fun r -> r.Qlog.r_trace) records)
     in
     Alcotest.(check int) "trace ids distinct" 4 (List.length traces);
     (* Golden plan summaries: trace ids and rendered plans are pinned, so
        a change in execution order, trace derivation, or the executor's
        observable behavior (the Monsoon plans depend on the Σ estimates
        the executor feeds back) shows up as a byte diff here. *)
     let golden =
       [ ("r-15ed350a", "Defaults", "tq1", "(c \xe2\xa8\x9d (o \xe2\xa8\x9d l))");
         ("r-3c231c69", "Defaults", "tq2",
          "(l \xe2\xa8\x9d (o \xe2\xa8\x9d (c \xe2\xa8\x9d n)))");
         ("r-22d414e0", "Monsoon", "tq1",
          "plan \xce\xa3(o) | plan c \xe2\xa8\x9d o | EXECUTE | plan [c,o] \
           \xe2\xa8\x9d l | EXECUTE");
         ("r-1e38d398", "Monsoon", "tq2",
          "plan \xce\xa3(c) | plan c \xe2\xa8\x9d o | attach n \xe2\xa8\x9d (c \
           \xe2\xa8\x9d o) | wrap \xce\xa3(((c \xe2\xa8\x9d o) \xe2\xa8\x9d \
           n)) | EXECUTE | plan l \xe2\xa8\x9d [c,o,n] | EXECUTE") ]
     in
     Alcotest.(check (list (pair (pair string string) (pair string string))))
       "golden plan summaries"
       (List.map (fun (a, b, c, d) -> ((a, b), (c, d))) golden)
       (List.map
          (fun r ->
            ((r.Qlog.r_trace, r.Qlog.r_strategy), (r.Qlog.r_query, r.Qlog.r_plan)))
          records));
  Sys.remove path

(* With jobs > 1 the cells finish in whatever order the domains reach
   them, but their records reach the qlog in cell order: every run of a
   fixed seed lists the same trace ids in the same order. The Monsoon
   cells plan for far longer than the Defaults ones, so a later cell
   often ends first. *)
let test_runner_qlog_cell_order () =
  let w = Tpch.workload { Tpch.seed = 11; scale = 0.05; skew = Tpch.Plain } in
  let strategies =
    [ Strategy.monsoon ~iterations:80 ~scale_with_size:false
        Monsoon_stats.Prior.spike_and_slab;
      Strategy.defaults ]
  in
  let traces jobs =
    let path = tmp_qlog () in
    let wtr = writer path in
    ignore
      (Runner.run_suite
         { Runner.default_config with
           Runner.budget = 1e6;
           seed = 11;
           queries = Some [ "tq1"; "tq2"; "tq3"; "tq5" ];
           jobs;
           qlog = Some wtr }
         strategies w);
    Qlog.close wtr;
    let ids =
      match Qlog.load path with
      | Ok records -> List.map (fun r -> r.Qlog.r_trace) records
      | Error e -> Alcotest.fail e
    in
    Sys.remove path;
    ids
  in
  let sequential = traces 1 in
  Alcotest.(check int) "one record per cell" 8 (List.length sequential);
  Alcotest.(check (list string)) "jobs 2, first run" sequential (traces 2);
  Alcotest.(check (list string)) "jobs 2, second run" sequential (traces 2)

(* The rendered EXPLAIN plan tables list nodes in obs_nodes completion
   order; pin one deterministic run's tables verbatim so any executor
   change to completion order or observed cardinalities is a visible
   diff. *)
let test_explain_plan_tables_golden () =
  let open Monsoon_core in
  let w = Tpch.workload { Tpch.seed = 11; scale = 0.05; skew = Tpch.Plain } in
  let q = Workload.find_query w "tq1" in
  let rng = Runner.cell_rng ~seed:11 ~strategy:"Monsoon" ~query:"tq1" in
  let mcts =
    { (Monsoon_mcts.Mcts.default_config ~rng) with
      Monsoon_mcts.Mcts.iterations = 60 }
  in
  let config =
    { Driver.prior = Monsoon_stats.Prior.spike_and_slab;
      prior_of = None;
      known_distincts = [];
      mcts;
      budget = 1e6;
      max_steps = 200 }
  in
  let recorder = Recorder.create () in
  let _ =
    Driver.run
      ~env:(Ctx.to_env (Ctx.with_recorder (Ctx.null ()) recorder))
      config w.Workload.catalog q
  in
  let report = Explain.report ~trace:"golden" recorder in
  let step2 =
    "EXECUTE at step 2 (cost 171)\n\
    \  Plan node  Predicted  Observed  Q-error\n\
    \  ---------  ---------  --------  -------\n\
    \  (c \xe2\xa8\x9d o)  5.86204    20        3.41   \n\
    \    c        1.46375    10        6.83   \n\
    \    o        5.1126     151       29.53  \n\
    \  o          5.1126     151       29.53  \n"
  in
  let step4 =
    "EXECUTE at step 4 (cost 0)\n\
    \  Plan node      Predicted  Observed  Q-error\n\
    \  -------------  ---------  --------  -------\n\
    \  ([c,o] \xe2\xa8\x9d l)  3000       84        35.71  \n\
    \    [c,o]        -          20        -      \n\
    \    l            3000       3000      1.00   \n"
  in
  Alcotest.(check bool) "step-2 plan table renders identically" true
    (contains report step2);
  Alcotest.(check bool) "step-4 plan table renders identically" true
    (contains report step4)

let () =
  Alcotest.run "qlog"
    [ ( "records",
        [ Alcotest.test_case "of_events derivation" `Quick
            test_of_events_derivation;
          Alcotest.test_case "of_events on empty trajectory" `Quick
            test_of_events_empty;
          Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip ] );
      ( "writer",
        [ Alcotest.test_case "rotation and load" `Quick
            test_writer_rotation_and_load;
          Alcotest.test_case "load refuses rejected lines" `Quick
            test_load_refuses_rejected_lines;
          Alcotest.test_case "record readable before close" `Quick
            test_record_readable_before_close ] );
      ( "aggregation",
        [ Alcotest.test_case "report content and order-independence" `Quick
            test_report_content;
          Alcotest.test_case "diff ignores latency, byte-stable" `Quick
            test_diff_identical_runs;
          Alcotest.test_case "diff detects regressions" `Quick
            test_diff_detects_regression ] );
      ( "correlation",
        [ Alcotest.test_case "qlog, explain, spans join on trace" `Quick
            test_trace_correlation ] );
      ( "runner",
        [ Alcotest.test_case "audited run is byte-identical" `Quick
            test_runner_qlog_differential;
          Alcotest.test_case "records in cell order at any jobs" `Quick
            test_runner_qlog_cell_order;
          Alcotest.test_case "explain plan tables golden" `Quick
            test_explain_plan_tables_golden ] ) ]
