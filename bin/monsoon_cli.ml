(* Command-line front end: list and run the paper's experiments, or profile
   one under telemetry. *)

open Cmdliner
open Monsoon_harness
open Monsoon_telemetry
module Stats_repo = Monsoon_stats_repo.Stats_repo

let profile_of_flag quick_flag =
  if quick_flag then Experiments.quick else Experiments.full

let find_experiment id =
  List.find_opt (fun (eid, _, _) -> eid = id) Experiments.all

let unknown_experiment id =
  Error (Printf.sprintf "unknown experiment %s (try `list')" id)

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use the quick (smoke-test) profile.")

let write_file path content =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc content);
    Ok ()
  with Sys_error msg -> Error (Printf.sprintf "cannot write %s: %s" path msg)

(* Where completed spans go when --trace is given. *)
type trace_dest =
  | Trace_none
  | Trace_jsonl of out_channel
  | Trace_perfetto of string * Trace_event.t

let open_trace_dest ~trace ~trace_format =
  match (trace, trace_format) with
  | None, `Perfetto -> Error "--trace-format perfetto requires --trace FILE"
  | None, `Jsonl -> Ok Trace_none
  | Some "", _ -> Error "--trace requires a non-empty FILE"
  | Some path, `Jsonl -> (
    try Ok (Trace_jsonl (open_out path))
    with Sys_error msg ->
      Error (Printf.sprintf "cannot open trace file: %s" msg))
  | Some path, `Perfetto -> Ok (Trace_perfetto (path, Trace_event.create ()))

let close_trace_dest = function
  | Trace_none -> ()
  | Trace_jsonl oc -> close_out oc
  | Trace_perfetto (path, collector) -> (
    match write_file path (Trace_event.to_string collector) with
    | Ok () -> ()
    | Error msg -> Printf.eprintf "monsoon: %s\n" msg)

(* Builds the telemetry context the run executes under: an optional trace
   sink (JSONL stream or Perfetto collector), when [keep] is set an
   in-memory buffer for the in-process report, and — when [serve] or
   [watch] asks for it — a live Monitor sampling every [interval]
   seconds, and with [serve] an Http server exposing /metrics, /healthz,
   and /snapshot.json on 127.0.0.1:[serve]. With [watch], each sampler
   tick streams a one-line differential to stderr and the run ends with
   the full differential report on stdout. *)
let with_telemetry ~trace ~trace_format ~keep ~serve ~interval ~watch f =
  match open_trace_dest ~trace ~trace_format with
  | Error _ as e -> e
  | Ok dest -> (
    let buf = if keep then Some (Span.memory_buffer ()) else None in
    let sinks =
      (match buf with Some b -> [ Span.Memory b ] | None -> [])
      @
      match dest with
      | Trace_none -> []
      | Trace_jsonl oc -> [ Span.Jsonl oc ]
      | Trace_perfetto (_, collector) -> [ Trace_event.sink collector ]
    in
    let sink =
      match sinks with [] -> Span.Null | [ s ] -> s | ss -> Span.Multi ss
    in
    let tel = Ctx.create ~sink () in
    let monitor =
      if serve = None && not watch then None
      else begin
        Monitor.preregister tel.Ctx.registry;
        let prev = ref None in
        let on_tick s =
          if watch then begin
            (match !prev with
            | Some p -> Printf.eprintf "%s\n%!" (Monitor.tick_line p s)
            | None -> ());
            prev := Some s
          end
        in
        Some
          (Monitor.create ~interval ~on_tick
             ~flush:(fun () -> Span.flush sink)
             tel.Ctx.registry)
      end
    in
    let served =
      match serve with
      | None -> Ok None
      | Some port -> (
        match
          Monsoon_server.Http.serve ~registry:tel.Ctx.registry ~port
            (fun _ -> None)
        with
        | Ok http ->
          Printf.eprintf "monsoon: serving http://127.0.0.1:%d/metrics\n%!"
            (Monsoon_server.Http.port http);
          Ok (Some http)
        | Error msg -> Error (Printf.sprintf "--serve %d: %s" port msg))
    in
    match served with
    | Error _ as e ->
      Option.iter Monitor.stop monitor;
      close_trace_dest dest;
      e
    | Ok http ->
      Fun.protect
        ~finally:(fun () ->
          (* Every teardown step runs even when an earlier one raises — a
             failed Monitor.stop must not leak the trace file handle. The
             first failure is re-raised once everything is down. *)
          let failure = ref None in
          let step g =
            try g ()
            with e ->
              if !failure = None then
                failure := Some (e, Printexc.get_raw_backtrace ())
          in
          step (fun () -> Option.iter Monsoon_server.Http.stop http);
          step (fun () -> Option.iter Monitor.stop monitor);
          step (fun () ->
              match monitor with
              | Some m when watch -> (
                match (Monitor.first m, Monitor.latest m) with
                | Some a, Some b when a != b ->
                  print_newline ();
                  print_string (Monitor.diff_report a b)
                | _ -> ())
              | _ -> ());
          step (fun () -> close_trace_dest dest);
          match !failure with
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
        (fun () -> f tel buf);
      Ok ())

(* Run one query under the flight recorder, print the explain report, and
   honor the optional DOT / JSON export destinations. Shared by `explain'
   and `experiment --explain'. *)
let run_explain ?(op_profile = false) profile ~experiment ~query ~dot ~json =
  match Experiments.explain ~op_profile profile ~experiment ~query with
  | Error _ as e -> e
  | Ok recorder ->
    print_string (Explain.report recorder);
    let write_opt dest content =
      match dest with None -> Ok () | Some path -> write_file path content
    in
    Result.bind (write_opt dot (Recorder.to_dot recorder)) (fun () ->
        write_opt json (Json.to_string (Recorder.to_json recorder) ^ "\n"))

let dot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:
          "Write the recorded MCTS root decisions as a Graphviz digraph to \
           $(docv) (render with dot -Tsvg).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the full recorded trajectory as JSON to $(docv).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write completed telemetry spans to $(docv) as JSONL, one span per \
           line, for offline analysis.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run (strategy, query) cells on $(docv) domains (default 1 = \
           sequential; 0 = one per core). Experiment tables are identical \
           for every value.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the telemetry metrics snapshot after the run.")

let trace_format_arg =
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("perfetto", `Perfetto) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Format for the --trace file: $(b,jsonl) (one span per line) or \
           $(b,perfetto) (Chrome trace-event JSON — open it at \
           ui.perfetto.dev to see per-domain span timelines).")

let serve_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve" ] ~docv:"PORT"
        ~doc:
          "Expose live monitoring on 127.0.0.1:$(docv) for the duration of \
           the run: /metrics (Prometheus text exposition), /healthz, and \
           /snapshot.json. Port 0 picks an ephemeral port; the bound \
           address is printed to stderr.")

let interval_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "sample-interval" ] ~docv:"SECONDS"
        ~doc:
          "Cadence of the monitor's sampler (default 1.0), used by --serve \
           and --watch.")

let metrics_report tel =
  Snapshot.metrics_table ~title:"Telemetry metrics" tel.Ctx.registry

let list_cmd =
  let doc = "List the available experiments." in
  let run () =
    List.iter
      (fun (id, descr, _) -> Printf.printf "%-20s %s\n" id descr)
      Experiments.all;
    Ok ()
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let experiment_cmd =
  let doc = "Run one experiment (see `list')." in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let explain_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"QUERY"
          ~doc:
            "After the experiment table, re-run Monsoon on $(docv) with the \
             decision flight recorder attached and print the explain report \
             (see the `explain' command).")
  in
  let run quick trace trace_format serve interval metrics explain dot jobs id =
    match find_experiment id with
    | None -> unknown_experiment id
    | Some (_, _, f) ->
      let inner = ref (Ok ()) in
      let outer =
        with_telemetry ~trace ~trace_format ~keep:false ~serve ~interval
          ~watch:false (fun tel _ ->
            let profile =
              { (profile_of_flag quick) with Experiments.ctx = tel; jobs }
            in
            print_string (Experiments.run profile ~id f);
            print_newline ();
            if metrics then print_string (metrics_report tel);
            match explain with
            | None -> ()
            | Some query ->
              print_newline ();
              inner :=
                run_explain profile ~experiment:id ~query ~dot ~json:None)
      in
      (match outer with Ok () -> !inner | Error _ as e -> e)
  in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(
      const run $ quick_flag $ trace_arg $ trace_format_arg $ serve_arg
      $ interval_arg $ metrics_arg $ explain_arg $ dot_arg $ jobs_arg $ id_arg)

let all_cmd =
  let doc = "Run every experiment in paper order." in
  let run quick trace trace_format serve interval metrics jobs =
    with_telemetry ~trace ~trace_format ~keep:false ~serve ~interval
      ~watch:false (fun tel _ ->
        let profile =
          { (profile_of_flag quick) with Experiments.ctx = tel; jobs }
        in
        List.iter
          (fun (id, _, f) ->
            Printf.printf "=== %s ===\n%s\n%!" id (Experiments.run profile ~id f))
          Experiments.all;
        if metrics then print_string (metrics_report tel))
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const run $ quick_flag $ trace_arg $ trace_format_arg $ serve_arg
      $ interval_arg $ metrics_arg $ jobs_arg)

(* `profile table8-quick' is shorthand for `profile --quick table8'. *)
let split_profile_suffix id =
  let strip suffix =
    if
      String.length id > String.length suffix
      && String.ends_with ~suffix id
    then Some (String.sub id 0 (String.length id - String.length suffix))
    else None
  in
  match strip "-quick" with
  | Some base -> (base, Some Experiments.quick)
  | None -> (
    match strip "-full" with
    | Some base -> (base, Some Experiments.full)
    | None -> (id, None))

let profile_cmd =
  let doc =
    "Run one experiment under telemetry and print its profiling report: the \
     span-derived component breakdown plus the metrics registry snapshot. \
     EXPERIMENT may carry a -quick/-full suffix (e.g. table8-quick)."
  in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let watch_arg =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Stream a one-line differential sample to stderr on every \
             monitor tick (see --sample-interval) and print the full \
             differential runtime report — per-metric rates over the run, \
             top movers first, plus GC — after the experiment output.")
  in
  let run quick trace trace_format serve interval watch jobs id =
    let base, forced = split_profile_suffix id in
    match find_experiment base with
    | None -> unknown_experiment base
    | Some (_, _, f) ->
      with_telemetry ~trace ~trace_format ~keep:true ~serve ~interval ~watch
        (fun tel buf ->
          let p =
            match forced with Some p -> p | None -> profile_of_flag quick
          in
          let profile = { p with Experiments.ctx = tel; jobs } in
          print_string (Experiments.run profile ~id:base f);
          print_newline ();
          Printf.printf "jobs: %d%s\n\n" profile.Experiments.jobs
            (if profile.Experiments.jobs = 0 then " (all cores)" else "");
          let spans = Span.buffer_spans (Option.get buf) in
          print_string
            (Snapshot.breakdown_table
               ~title:"Component breakdown (derived from spans)" spans);
          print_newline ();
          print_string (metrics_report tel);
          Option.iter
            (fun file ->
              Printf.printf "\n%d spans written to %s\n" (List.length spans)
                file)
            trace)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ quick_flag $ trace_arg $ trace_format_arg $ serve_arg
      $ interval_arg $ watch_arg $ jobs_arg $ id_arg)

let explain_cmd =
  let doc =
    "Re-run Monsoon on one benchmark query with the decision flight recorder \
     attached and print an EXPLAIN ANALYZE-style report: the MDP decision \
     timeline with MCTS root statistics, per-node predicted vs observed \
     cardinalities with q-errors, the worst misestimates, and the statistics \
     hardened into the catalog. EXPERIMENT is a benchmark-backed experiment \
     (tpch/table2, imdb/table3..5, ott/table6, udf/table7/figure3)."
  in
  let experiment_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let query_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY")
  in
  let op_profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attach an execution profile collector: the report's plan \
             tables gain per-operator rows — time share, rows in/out, \
             selectivity, column-representation mix, and whether the \
             fused or scalar path ran. Off by default; profiling only \
             reads, so the run's decisions and costs are unchanged.")
  in
  let run quick dot json op_profile experiment query =
    let profile = profile_of_flag quick in
    run_explain ~op_profile profile ~experiment ~query ~dot ~json
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ quick_flag $ dot_arg $ json_arg $ op_profile_arg
      $ experiment_arg $ query_arg)

(* Shared by chaos / serve / load: open the audit log (when asked for),
   run the body, and close it even on error paths. *)
let qlog_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "qlog" ] ~docv:"FILE"
        ~doc:
          "Append one audit-log record per query (JSONL) to $(docv): trace \
           id, fingerprint, outcome, cost, replans, worst q-error. Analyse \
           with `monsoon qlog'.")

let with_qlog path f =
  match path with
  | None -> f None
  | Some p -> (
    match Qlog.create p with
    | Error msg -> Error msg
    | Ok q ->
      Fun.protect ~finally:(fun () -> Qlog.close q) (fun () -> f (Some q)))

let chaos_cmd =
  let doc =
    "Run a benchmark experiment's full suite with the fault plane armed — \
     UDF faults, poisoned rows, failed hash-join builds, killed pool \
     workers — and print a survival report: per-implementation OK / timeout \
     / degraded / retried / quarantined counts plus the resilience \
     counters. The report is deterministic: the same --seed and --faults \
     produce byte-identical output across runs and --jobs values. \
     EXPERIMENT accepts the same ids as `explain'."
  in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let faults_arg =
    Arg.(
      value
      & opt string "udf:0.05"
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated class:value pairs, e.g. \
             $(b,udf:0.05,worker:1). Classes: $(b,udf), $(b,row), $(b,build) \
             (firing probabilities in [0,1]) and $(b,worker) (pool workers \
             to kill and respawn; needs --jobs > 1).")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:"Override the profile's suite seed (fault firing included).")
  in
  let retries_arg =
    Arg.(
      value
      & opt int Runner.default_config.Runner.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts for a faulted cell before it is quarantined \
             (deterministic backoff, salted per-attempt RNG).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Cooperative wall-clock deadline per cell attempt; expiry \
             yields a timed-out cell. Wall-clock bounds trade away \
             run-to-run determinism.")
  in
  (* Default 2 (not 1): chaos runs should exercise the pool path, so a
     worker-kill spec has workers to kill without extra flags. *)
  let chaos_jobs_arg =
    Arg.(
      value
      & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domains running cells (default 2, so worker kills have a pool \
             to act on; 0 = one per core). The report is identical for \
             every value.")
  in
  let run quick trace trace_format serve interval metrics faults seed retries
      deadline jobs qlog_path id =
    match Monsoon_util.Fault.spec_of_string faults with
    | Error msg -> Error (Printf.sprintf "--faults %S: %s" faults msg)
    | Ok spec ->
      with_qlog qlog_path (fun qlog ->
          let inner = ref (Ok ()) in
          let outer =
            with_telemetry ~trace ~trace_format ~keep:false ~serve ~interval
              ~watch:false (fun tel _ ->
                let base = profile_of_flag quick in
                let profile =
                  { base with
                    Experiments.ctx = tel;
                    jobs;
                    seed = Option.value seed ~default:base.Experiments.seed }
                in
                match
                  Experiments.chaos profile ~experiment:id ~faults:spec
                    ~retries ~cell_deadline:deadline ?qlog ()
                with
                | Error msg -> inner := Error msg
                | Ok report ->
                  print_string report;
                  if metrics then begin
                    print_newline ();
                    print_string (metrics_report tel)
                  end)
          in
          match outer with Ok () -> !inner | Error _ as e -> e)
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ quick_flag $ trace_arg $ trace_format_arg $ serve_arg
      $ interval_arg $ metrics_arg $ faults_arg $ seed_arg $ retries_arg
      $ deadline_arg $ chaos_jobs_arg $ qlog_arg $ id_arg)

(* --- serve / load: the long-running query service --- *)

let parse_faults s =
  if s = "" then Ok Monsoon_util.Fault.no_faults
  else Monsoon_util.Fault.spec_of_string s

let service_faults_arg =
  Arg.(
    value
    & opt string ""
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Arm the fault plane for served requests, e.g. \
           $(b,udf:0.05,worker:1). $(b,udf)/$(b,row)/$(b,build) rates fire \
           per request (Monsoon degrades to a fallback plan — the request \
           still succeeds); $(b,worker) kills that many pool workers, which \
           respawn.")

let service_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Override the profile's seed (per-request RNG derivation and \
           load-schedule layout).")

let service_experiment_arg =
  Arg.(
    value & pos 0 string "imdb"
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          "Benchmark experiment whose query suite is served (same ids as \
           `explain'; default imdb).")

let max_concurrent_arg =
  Arg.(
    value
    & opt int Monsoon_server.Server.default_config.Monsoon_server.Server.max_concurrent
    & info [ "max-concurrent" ] ~docv:"N"
        ~doc:"Execution slots (worker domains); requests beyond this queue.")

let queue_bound_arg =
  Arg.(
    value
    & opt int Monsoon_server.Server.default_config.Monsoon_server.Server.queue_bound
    & info [ "queue-bound" ] ~docv:"N"
        ~doc:
          "Admission queue bound; a request arriving with the queue full \
           is shed with 429 Retry-After.")

let request_timeout_arg =
  Arg.(
    value
    & opt float 30.0
    & info [ "request-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-request deadline: expiry (queued or executing) answers 504. \
           0 disables the deadline.")

let latency_slo_arg =
  Arg.(
    value
    & opt float Monsoon_server.Server.default_config.Monsoon_server.Server.latency_target
    & info [ "latency-slo" ] ~docv:"SECONDS"
        ~doc:"p95 latency objective for the end-of-run SLO report.")

let availability_slo_arg =
  Arg.(
    value
    & opt float
        Monsoon_server.Server.default_config.Monsoon_server.Server.availability_target
    & info [ "availability-slo" ] ~docv:"FRACTION"
        ~doc:
          "Availability objective (ok + degraded share); its complement is \
           the error budget.")

let slow_query_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-query" ] ~docv:"SECONDS"
        ~doc:
          "Slow-query threshold: a request at or over $(docv) seconds pins \
           its flight-recorder capture outside the explain ring (last 256 \
           kept), so slow outliers stay auditable under churn.")

let server_config ~max_concurrent ~queue_bound ~request_timeout ~seed
    ~explain_ring ~latency_slo ~availability_slo ~slow_query ~qlog =
  { Monsoon_server.Server.max_concurrent;
    queue_bound;
    request_timeout =
      (if request_timeout <= 0.0 then None else Some request_timeout);
    seed;
    explain_ring;
    latency_target = latency_slo;
    availability_target = availability_slo;
    slow_query;
    qlog }

(* Builds the service (telemetry context, handler, server) shared by
   `serve' and in-process `load'. *)
let make_server ?stats_repo ~quick ~seed ~experiment ~spec ~config_of () =
  let tel = Ctx.create () in
  Monitor.preregister tel.Ctx.registry;
  let base = profile_of_flag quick in
  let profile =
    { base with
      Experiments.ctx = tel;
      seed = Option.value seed ~default:base.Experiments.seed }
  in
  match Experiments.service profile ~experiment ~faults:spec ?stats_repo () with
  | Error _ as e -> e
  | Ok (handler, names) ->
    let config = config_of ~seed:profile.Experiments.seed in
    let server =
      Monsoon_server.Server.create
        ~env:(Monsoon_telemetry.Ctx.to_env tel)
        ~queries:names config handler
    in
    if spec.Monsoon_util.Fault.worker_kills > 0 then
      Monsoon_server.Server.inject_kills server
        spec.Monsoon_util.Fault.worker_kills;
    Ok (server, names)

let serve_cmd =
  let doc =
    "Serve a benchmark experiment's query suite as a long-running HTTP \
     service on 127.0.0.1: POST /query executes a named query under \
     admission control (bounded queue, 429 + Retry-After on overload), a \
     concurrency limit backed by a pool of worker domains, and a \
     per-request deadline (504 on expiry). GET /metrics, /slo, /queries, \
     /healthz, /snapshot.json and /query/ID/explain expose the live state. \
     SIGINT/SIGTERM drain gracefully: in-flight requests finish, the SLO \
     report prints, and the process exits 0."
  in
  let port_arg =
    Arg.(
      value
      & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Port to bind on 127.0.0.1 (default 0 = pick an ephemeral \
             port; the bound port is printed to stderr and available via \
             --port-file).")
  in
  let port_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:
            "Write the bound port to $(docv) — the programmatic discovery \
             path for tests and CI (no stderr scraping).")
  in
  let explain_ring_arg =
    Arg.(
      value
      & opt int
          Monsoon_server.Server.default_config.Monsoon_server.Server.explain_ring
      & info [ "explain-ring" ] ~docv:"N"
          ~doc:
            "Retain flight-recorder explain reports for the last $(docv) \
             requests (GET /query/ID/explain); 0 disables capture.")
  in
  let repo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repo" ] ~docv:"PATH"
          ~doc:
            "Warm-start every request from the statistics repository at \
             $(docv) (see `stats'): tight history seeds the optimizer's \
             catalog and each finished query flushes its measurements \
             back. Omitted = repository-free serving, byte-identical to \
             before the repository existed.")
  in
  let run quick faults seed port port_file max_concurrent queue_bound
      request_timeout explain_ring latency_slo availability_slo slow_query
      qlog_path repo_path experiment =
    match parse_faults faults with
    | Error msg -> Error (Printf.sprintf "--faults %S: %s" faults msg)
    | Ok spec ->
      with_qlog qlog_path @@ fun qlog ->
      (match
        make_server
          ?stats_repo:(Option.map Stats_repo.open_ repo_path)
          ~quick ~seed ~experiment ~spec
          ~config_of:(fun ~seed ->
            server_config ~max_concurrent ~queue_bound ~request_timeout ~seed
              ~explain_ring ~latency_slo ~availability_slo ~slow_query ~qlog)
          ()
      with
      | Error _ as e -> e
      | Ok (server, names) -> (
        match Monsoon_server.Server.listen server ~port with
        | Error msg ->
          Monsoon_server.Server.stop server;
          Error (Printf.sprintf "--port %d: %s" port msg)
        | Ok bound -> (
          Printf.eprintf
            "monsoon: serving %s (%d queries) on http://127.0.0.1:%d — POST \
             /query, GET /metrics /slo /queries /healthz\n\
             %!"
            experiment (List.length names) bound;
          match
            match port_file with
            | None -> Ok ()
            | Some f -> write_file f (string_of_int bound ^ "\n")
          with
          | Error _ as e ->
            Monsoon_server.Server.stop server;
            e
          | Ok () ->
            let stop_requested = Atomic.make false in
            let handler =
              Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)
            in
            let prev_int = Sys.signal Sys.sigint handler in
            let prev_term = Sys.signal Sys.sigterm handler in
            while not (Atomic.get stop_requested) do
              try Unix.sleepf 0.2
              with Unix.Unix_error (Unix.EINTR, _, _) -> ()
            done;
            Sys.set_signal Sys.sigint prev_int;
            Sys.set_signal Sys.sigterm prev_term;
            let adm = Monsoon_server.Server.admission server in
            Printf.eprintf "monsoon: draining (%d in flight, %d queued)\n%!"
              (Monsoon_server.Admission.in_flight adm)
              (Monsoon_server.Admission.queued adm);
            Monsoon_server.Server.stop server;
            print_string
              (Monsoon_server.Slo.report (Monsoon_server.Server.slo server));
            Ok ())))
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ quick_flag $ service_faults_arg $ service_seed_arg
      $ port_arg $ port_file_arg $ max_concurrent_arg $ queue_bound_arg
      $ request_timeout_arg $ explain_ring_arg $ latency_slo_arg
      $ availability_slo_arg $ slow_query_arg $ qlog_arg $ repo_arg
      $ service_experiment_arg)

let load_cmd =
  let doc =
    "Replay a benchmark query suite against a query server and print the \
     per-fingerprint latency/error breakdown plus the SLO report. With \
     --port, drives a `monsoon serve' process over HTTP (the query list \
     comes from GET /queries). Without it, an in-process server is \
     created, hammered, and drained — the deterministic mode: with \
     --clients/--count and a fixed --seed, the request schedule and \
     per-fingerprint counts are byte-stable."
  in
  let host_arg =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server host for --port mode.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Drive the server listening on HOST:$(docv) over HTTP instead \
             of an in-process one.")
  in
  let clients_arg =
    Arg.(
      value
      & opt int 4
      & info [ "clients" ] ~docv:"N"
          ~doc:
            "Closed-loop mode: $(docv) concurrent clients, each issuing \
             its next request when the previous response lands (ignored \
             with --rate).")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Open-loop mode: seeded Poisson arrivals at $(docv) \
             requests/second — a slow server does not throttle arrivals, \
             so overload shows up as queueing and 429s.")
  in
  let count_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Issue exactly $(docv) requests (the deterministic stop; takes \
             precedence over --duration).")
  in
  let duration_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Issue requests for $(docv) seconds (default 10).")
  in
  let load_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the run's machine-readable report (overall and \
             per-fingerprint counts, throughput, exact percentiles) to \
             $(docv).")
  in
  let run quick faults seed host port clients rate count duration json
      max_concurrent queue_bound request_timeout latency_slo availability_slo
      qlog_path experiment =
    let arrival =
      match rate with
      | Some r -> Loadgen.Open r
      | None -> Loadgen.Closed clients
    in
    let stop =
      match (count, duration) with
      | Some n, _ -> Loadgen.Requests n
      | None, Some d -> Loadgen.Duration d
      | None, None -> Loadgen.Duration 10.0
    in
    let base = profile_of_flag quick in
    let seed_v = Option.value seed ~default:base.Experiments.seed in
    let lg_config = { Loadgen.arrival; stop; seed = seed_v } in
    let write_json result =
      match json with
      | None -> Ok ()
      | Some f ->
        write_file f (Json.to_string (Loadgen.to_json result) ^ "\n")
    in
    match port with
    | Some p -> (
      let client = Monsoon_server.Load_client.http ~host ~port:p () in
      match Monsoon_server.Load_client.queries client with
      | Error msg ->
        Error (Printf.sprintf "cannot list queries on %s:%d: %s" host p msg)
      | Ok [] -> Error (Printf.sprintf "%s:%d advertises no queries" host p)
      | Ok qs ->
        let result = Loadgen.run client lg_config ~queries:qs in
        print_string (Loadgen.report result);
        (match Monsoon_server.Load_client.slo_report client with
        | Ok r ->
          print_newline ();
          print_string r
        | Error msg -> Printf.eprintf "monsoon: /slo: %s\n" msg);
        write_json result)
    | None -> (
      match parse_faults faults with
      | Error msg -> Error (Printf.sprintf "--faults %S: %s" faults msg)
      | Ok spec ->
        with_qlog qlog_path @@ fun qlog ->
        (match
          make_server ~quick ~seed ~experiment ~spec
            ~config_of:(fun ~seed ->
              server_config ~max_concurrent ~queue_bound ~request_timeout
                ~seed ~explain_ring:0 ~latency_slo ~availability_slo
                ~slow_query:None ~qlog)
            ()
        with
        | Error _ as e -> e
        | Ok (server, names) ->
          let client = Monsoon_server.Load_client.in_process server in
          let result = Loadgen.run client lg_config ~queries:names in
          Monsoon_server.Server.stop server;
          print_string (Loadgen.report result);
          print_newline ();
          print_string
            (Monsoon_server.Slo.report (Monsoon_server.Server.slo server));
          write_json result))
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const run $ quick_flag $ service_faults_arg $ service_seed_arg
      $ host_arg $ port_arg $ clients_arg $ rate_arg $ count_arg
      $ duration_arg $ load_json_arg $ max_concurrent_arg $ queue_bound_arg
      $ request_timeout_arg $ latency_slo_arg $ availability_slo_arg
      $ qlog_arg $ service_experiment_arg)

let qlog_cmd =
  let doc =
    "Aggregate a query audit log written by `serve --qlog', `load --qlog' \
     or `chaos --qlog': a per-class table (requests, outcome mix, mean \
     cost, replans, worst q-error), the slowest requests, and the worst \
     cardinality misestimates. With --diff OLD, compares OLD against FILE \
     per query class on the deterministic fields only (cost, outcomes, \
     replans — never wall-clock latency) and renders a regression report; \
     exits 1 when any class regressed, so CI can gate on it."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Query log (JSONL) to aggregate — the NEW log under --diff.")
  in
  let diff_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff" ] ~docv:"OLD"
          ~doc:
            "Compare $(docv) (the baseline log) against FILE and report \
             per-class regressions.")
  in
  let top_arg =
    Arg.(
      value
      & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Rows in the slowest / worst-misestimate rankings.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt float 1.1
      & info [ "threshold" ] ~docv:"RATIO"
          ~doc:
            "Mean-cost growth ratio above which a class counts as \
             regressed (default 1.1 = +10%).")
  in
  let run diff top threshold file =
    match Qlog.load file with
    | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
    | Ok records -> (
      match diff with
      | None ->
        print_string (Qlog.report ~top records);
        Ok ()
      | Some old_file -> (
        match Qlog.load old_file with
        | Error msg -> Error (Printf.sprintf "%s: %s" old_file msg)
        | Ok old_records ->
          let report, regressions =
            Qlog.diff_report ~threshold ~old_:old_records records
          in
          print_string report;
          if regressions = 0 then Ok ()
          else
            Error
              (Printf.sprintf "%d class%s regressed" regressions
                 (if regressions = 1 then "" else "es"))))
  in
  Cmd.v (Cmd.info "qlog" ~doc)
    Term.(
      const run $ diff_arg $ top_arg $ threshold_arg $ file_arg)

let stats_cmd =
  let doc =
    "Inspect and maintain the persistent cross-query statistics repository \
     (the observation log warm-started runs read — see `experiment \
     warmstart'). ACTION is one of: $(b,show) (render the current log, one \
     row per key, deterministic), $(b,snapshot) (freeze the current \
     aggregate to <repo>.snap-NNNNNN.json), $(b,diff) (compare two \
     snapshot files — explicit OLD NEW positionals, or the repository's \
     two newest snapshots when omitted), $(b,gc) (delete all but the \
     newest --keep snapshots). Every report is byte-stable for the same \
     log contents, so CI can diff double runs."
  in
  let action_arg =
    let actions =
      Arg.enum
        [ ("show", `Show); ("snapshot", `Snapshot); ("diff", `Diff);
          ("gc", `Gc) ]
    in
    Arg.(
      value & pos 0 actions `Show
      & info [] ~docv:"ACTION" ~doc:"show | snapshot | diff | gc.")
  in
  let repo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repo" ] ~docv:"PATH"
          ~doc:
            "Repository observation log (JSONL). Defaults to \
             $(b,MONSOON_REPO).")
  in
  let old_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"OLD" ~doc:"diff: baseline snapshot file.")
  in
  let new_arg =
    Arg.(
      value
      & pos 2 (some string) None
      & info [] ~docv:"NEW" ~doc:"diff: new snapshot file.")
  in
  let keep_arg =
    Arg.(
      value & opt int 5
      & info [ "keep" ] ~docv:"N"
          ~doc:"gc: snapshots to retain, newest first (default 5).")
  in
  let run action repo_path old_ new_ keep =
    let repo () =
      match
        (match repo_path with
        | Some p -> Some p
        | None -> Sys.getenv_opt "MONSOON_REPO")
      with
      | Some p -> Ok (Stats_repo.open_ p)
      | None -> Error "no repository: pass --repo PATH or set MONSOON_REPO"
    in
    let print_diff ~old_ ~new_ =
      match Stats_repo.diff ~old_ ~new_ with
      | Ok report ->
        print_string report;
        Ok ()
      | Error msg -> Error msg
    in
    match action with
    | `Show -> (
      match repo () with
      | Error msg -> Error msg
      | Ok r ->
        print_string (Stats_repo.show r);
        Ok ())
    | `Snapshot -> (
      match repo () with
      | Error msg -> Error msg
      | Ok r -> (
        match Stats_repo.snapshot r with
        | Ok file ->
          Printf.printf "snapshot written: %s\n" file;
          Ok ()
        | Error msg -> Error msg))
    | `Gc -> (
      match repo () with
      | Error msg -> Error msg
      | Ok r ->
        let removed = Stats_repo.gc r ~keep in
        let kept = List.length (Stats_repo.snapshots r) in
        Printf.printf "removed %d snapshot%s, kept %d\n" removed
          (if removed = 1 then "" else "s")
          kept;
        Ok ())
    | `Diff -> (
      match (old_, new_) with
      | Some o, Some n -> print_diff ~old_:o ~new_:n
      | Some _, None | None, Some _ ->
        Error "diff takes either both OLD and NEW snapshot files or neither"
      | None, None -> (
        match repo () with
        | Error msg -> Error msg
        | Ok r -> (
          match List.rev (Stats_repo.snapshots r) with
          | newest :: previous :: _ -> print_diff ~old_:previous ~new_:newest
          | _ ->
            Error
              "diff without positionals needs at least two snapshots (run \
               `stats snapshot' twice, or pass OLD NEW explicitly)")))
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(const run $ action_arg $ repo_arg $ old_arg $ new_arg $ keep_arg)

let demo_cmd =
  let doc =
    "Walk through the paper's Sec 2.3 example: the MDP, the chosen actions, \
     and the resulting execution."
  in
  let run () =
    print_string (Experiments.table1 ());
    print_newline ();
    print_string (Experiments.figure1 ());
    Ok ()
  in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ const ())

let main =
  let doc = "Monsoon: multi-step optimization and execution (SIGMOD 2020 reproduction)" in
  Cmd.group (Cmd.info "monsoon" ~doc)
    [ list_cmd; experiment_cmd; all_cmd; profile_cmd; explain_cmd; chaos_cmd;
      serve_cmd; load_cmd; qlog_cmd; stats_cmd; demo_cmd ]

let () =
  match Cmd.eval_value main with
  | Ok (`Ok (Error msg)) ->
    Printf.eprintf "monsoon: %s\n" msg;
    exit 1
  | Ok (`Ok (Ok ())) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) -> exit Cmd.Exit.cli_error
  | Error `Exn -> exit Cmd.Exit.internal_error
