(* One workload, measured: untraced for the end-to-end metrics, or traced
   for the per-layer ones. *)

open Monsoon_util
open Monsoon_telemetry

(* BENCHMARK.json's run_seconds. *)
let default_seconds = 15.0

(* Set-up runs this many times; setup_s is the median. *)
let setups = 5

(* An untraced run measures at least this many passes, each in its own
   order: request order moves GC work between requests, so one ordering
   is a noisy sample. Every run therefore has at least
   [min_passes * pass_size] latencies, and the tail percentile is the
   highest one with ten of them beyond it, whatever the machine's speed. *)
let min_passes = 3

type report = {
  result : Metrics.result;
  tail : (float * int) option;
      (** untraced runs: the latency_tail_ms percentile and the n it was
          derived from *)
  unchecked : int;  (** queries whose reference ran out of budget *)
  wrong : int;  (** completed requests whose cardinality differs *)
}

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)

(* Set up [setups] times, closing every instance but the last; returns it
   with the median set-up and generation times. *)
let setup (w : Workloads.t) ~seed ctx =
  let rec go k acc =
    let inst, dt = Timer.time (fun () -> w.Workloads.setup ~seed ctx) in
    let acc = (dt, inst.Workloads.generate_s) :: acc in
    if k = 1 then (inst, acc)
    else begin
      inst.Workloads.close ();
      go (k - 1) acc
    end
  in
  let inst, times = go setups [] in
  (inst, Metrics.median (List.map fst times), Metrics.median (List.map snd times))

(* Completed requests whose cardinality differs from the reference; a
   query whose reference ran out of budget is unchecked. *)
let wrong_results reference (phase : Workloads.phase) =
  List.length
    (List.filter
       (fun (q, card) ->
         match List.assoc_opt q reference with
         | Some (Some r) -> not (Float.equal r card)
         | Some None | None -> false)
       phase.Workloads.results)

let report ~reference ~metrics ~tail (phases : Workloads.phase list) =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 phases in
  let wrong = sum (wrong_results reference) in
  { result =
      { Metrics.correct = wrong = 0;
        attempted = sum (fun p -> p.Workloads.attempted);
        failed = sum (fun p -> p.Workloads.failed) + wrong;
        metrics };
    tail;
    unchecked = List.length (List.filter (fun (_, r) -> r = None) reference);
    wrong }

(* Each request's latency is the median over its repeats (one per pass,
   at least [min_passes]): a burst of machine noise that slows one repeat
   moves no percentile. *)
let per_request_ms latencies =
  let by = Hashtbl.create 64 in
  List.iter
    (fun (r, s) ->
      Hashtbl.replace by r ((1000.0 *. s) :: Option.value (Hashtbl.find_opt by r) ~default:[]))
    latencies;
  Hashtbl.fold (fun _ ms acc -> Metrics.median ms :: acc) by []

let plain (w : Workloads.t) ~seed ~seconds =
  let ctx = Ctx.null () in
  let inst, setup_s, _ = setup w ~seed ctx in
  let reference = inst.Workloads.reference () in
  let p = inst.Workloads.run ~min_passes seconds in
  inst.Workloads.close ();
  let tail_n = min_passes * p.Workloads.pass_size in
  let ms = per_request_ms p.Workloads.latencies in
  let metrics =
    [ ("setup_s", setup_s);
      ("queries_per_s", float_of_int (List.length p.Workloads.latencies) /. p.Workloads.wall);
      ("latency_p50_ms", Metrics.median ms);
      ("latency_tail_ms", Metrics.percentile (Metrics.tail_quantile tail_n) ms);
      ("objects_per_query", Metrics.mean p.Workloads.costs);
      ("peak_rss_mb", peak_rss_mb ()) ]
  in
  report ~reference ~metrics ~tail:(Some (Metrics.tail_quantile tail_n, tail_n)) [ p ]

(* Span totals by name, and the per-request self time of the serving path:
   service time minus that request's driver.run span, joined on the trace
   attribute. *)
let span_seconds spans name =
  List.fold_left
    (fun acc (s : Span.t) -> if s.Span.name = name then acc +. Span.duration s else acc)
    0.0 spans

let server_self_ms spans (phase : Workloads.phase) =
  let runs = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.t) ->
      match (s.Span.name, List.assoc_opt "trace" s.Span.attrs) with
      | "driver.run", Some (Span.Str trace) -> Hashtbl.replace runs trace (Span.duration s)
      | _ -> ())
    spans;
  Metrics.median
    (List.filter_map
       (fun (trace, service) ->
         Option.map (fun run -> 1000.0 *. (service -. run)) (Hashtbl.find_opt runs trace))
       phase.Workloads.served)

(* A third of the run untraced (counts, GC, the trace baseline), the
   planner probe, then a third traced (span timings). *)
let traced (w : Workloads.t) ~seed ~seconds =
  let ctx_a = Ctx.null () in
  let inst_a, _, generate_s = setup w ~seed ctx_a in
  let reference = inst_a.Workloads.reference () in
  let gc0 = Gc.quick_stat () in
  let a = inst_a.Workloads.run ~min_passes:1 (seconds /. 3.0) in
  let gc1 = Gc.quick_stat () in
  let probe = Probe.create () in
  inst_a.Workloads.probe probe a;
  inst_a.Workloads.close ();
  let buf = Span.memory_buffer () in
  let ctx_b = Ctx.create ~sink:(Span.Memory buf) () in
  let inst_b = w.Workloads.setup ~seed ctx_b in
  let b = inst_b.Workloads.run ~min_passes:1 (seconds /. 3.0) in
  inst_b.Workloads.close ();
  let spans = Span.buffer_spans buf in
  let count ctx name = Metric.Counter.value (Ctx.counter ctx name) in
  let n_a = float_of_int a.Workloads.attempted in
  let n_b = float_of_int b.Workloads.attempted in
  let per_a name = Metrics.ratio (count ctx_a name) n_a in
  let ms_b name = Metrics.ratio (1000.0 *. span_seconds spans name) n_b in
  let expansions = count ctx_a "mcts.expansions" in
  let transpositions = count ctx_a "mcts.transpositions" in
  let fused = count ctx_a "exec.fused_ops" in
  let scalar = count ctx_a "exec.scalar_fallbacks" in
  let extra name = Option.value (List.assoc_opt name a.Workloads.extra) ~default:0.0 in
  let values =
    [ ("workloads.generate_ms", 1000.0 *. generate_s);
      ("mcts.plan_ms_per_query", ms_b "mcts.plan");
      ( "mcts.us_per_iteration",
        Metrics.ratio (1e6 *. span_seconds spans "mcts.plan") (count ctx_b "mcts.iterations") );
      ("mcts.iterations_per_query", per_a "mcts.iterations");
      ("mcts.transposition_share", Metrics.ratio transpositions (transpositions +. expansions));
      ("mcts.nodes_per_query", Metrics.ratio (transpositions +. expansions) n_a);
      ( "driver.self_ms_per_query",
        ms_b "driver.run" -. ms_b "mcts.plan" -. ms_b "driver.execute" );
      ("driver.steps_per_query", per_a "driver.steps");
      ("driver.executes_per_query", per_a "driver.executes");
      ("exec.execute_self_ms_per_query", ms_b "exec.execute" -. ms_b "exec.sigma");
      ("exec.sigma_ms_per_query", ms_b "exec.sigma");
      ( "exec.ns_per_emitted_tuple",
        Metrics.ratio (1e9 *. span_seconds spans "exec.execute")
          (count ctx_b "exec.tuples_emitted") );
      ("exec.tuples_emitted_per_query", per_a "exec.tuples_emitted");
      ("exec.tuples_probed_per_query", per_a "exec.tuples_probed");
      ("exec.sigma_objects_per_query", per_a "exec.sigma_objects");
      ("exec.fused_share", Metrics.ratio fused (fused +. scalar));
      ("exec.kernel_ops_per_query", Metrics.ratio (fused +. scalar) n_a);
      ("stats_repo.open_ms_p50", extra "stats_repo.open_ms_p50");
      ("stats_repo.log_lines_final", extra "stats_repo.log_lines_final");
      ("stats_repo.hit_share", Metrics.ratio (count ctx_a "repo.hits") (count ctx_a "repo.lookups"));
      ("stats_repo.lookups_per_query", per_a "repo.lookups");
      ("stats_repo.warm_starts_per_query", per_a "repo.warm_starts");
      ("stats_repo.entries_written_per_query", per_a "repo.entries_written");
      ("server.queue_wait_ms_p50", extra "server.queue_wait_ms_p50");
      ("server.service_ms_p50", extra "server.service_ms_p50");
      ("server.self_ms_p50", server_self_ms spans b);
      ("server.rejected", count ctx_a "server.rejected");
      ("qlog.bytes_per_request", extra "qlog.bytes_per_request");
      ( "gc.minor_words_per_query",
        Metrics.ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) n_a );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ( "trace.overhead_share",
        Metrics.ratio (b.Workloads.wall /. n_b) (a.Workloads.wall /. n_a) -. 1.0 ) ]
    @ Probe.metrics probe
  in
  let metrics =
    List.map (fun (s : Metrics.spec) -> (s.Metrics.name, List.assoc s.Metrics.name values))
      Metrics.per_layer
  in
  report ~reference ~metrics ~tail:None [ a; b ]
