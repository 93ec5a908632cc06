(* The four workloads. Every request goes through the system's public entry
   points: [Strategy.run] for one client, [Server] +
   [Load_client.in_process] for serving.

   Inputs. The data set and every request's planner RNG are fixed: data
   from the quick profile's generator seed (42) and a request's RNG from
   [Runner.cell_rng ~seed:(42 + variant) ~strategy:"Monsoon" ~query], so
   variant 0 of IMDB query iqK is exactly the run
   [monsoon explain imdb iqK --quick] replays. [--seed] orders the requests
   of every pass and seeds the server. When the seed chose the data or the planner's RNG,
   the interquartile range of a 20-query pass's mean objects over ten
   seeds was 53-96% of the median; a fixed request set keeps runs
   comparable. *)

open Monsoon_util
open Monsoon_relalg
open Monsoon_baselines
open Monsoon_workloads
open Monsoon_telemetry
module Experiments = Monsoon_harness.Experiments
module Runner = Monsoon_harness.Runner
module Stats_repo = Monsoon_stats_repo.Stats_repo
module Server = Monsoon_server.Server
module Load_client = Monsoon_server.Load_client

let quick = Experiments.quick
let data_seed = quick.Experiments.seed
let prior = Monsoon_stats.Prior.spike_and_slab

type request = { query : string; variant : int }

let request_rng r =
  Runner.cell_rng ~seed:(data_seed + r.variant) ~strategy:"Monsoon" ~query:r.query

(* Variant v > 0 of a query travels as "<query>@<v>". *)
let request_name r =
  if r.variant = 0 then r.query else Printf.sprintf "%s@%d" r.query r.variant

let request_of_name name =
  match String.index_opt name '@' with
  | None -> { query = name; variant = 0 }
  | Some i ->
    { query = String.sub name 0 i;
      variant = int_of_string (String.sub name (i + 1) (String.length name - i - 1)) }

(* What one timed phase produced. *)
type phase = {
  latencies : (string * float) list;
      (** (request, seconds from submit to result), completed requests; a
          request repeats once per pass *)
  costs : float list;  (** intermediate objects, completed requests *)
  results : (string * float) list;  (** (query, result cardinality) *)
  attempted : int;
  failed : int;  (** errored, rejected or timed out *)
  wall : float;  (** seconds *)
  pass_size : int;  (** requests in one pass *)
  plans : (string * string) list;
      (** query → action trace of its variant-0 run without history: the
          probe's reference *)
  served : (string * float) list;  (** serving: trace id → service seconds *)
  extra : (string * float) list;  (** workload-specific per-layer metrics *)
}

type instance = {
  generate_s : float;  (** the data generator's share of the set-up *)
  reference : unit -> (string * float option) list;
      (** untimed oracle: query → result cardinality, [None] when the
          reference itself ran out of budget *)
  run : min_passes:int -> float -> phase;
      (** closed loop: whole passes, at least [min_passes] of them and
          until this many seconds have elapsed *)
  probe : Probe.t -> phase -> unit;
  close : unit -> unit;
}

type t = {
  name : string;
  setup : seed:int -> Ctx.t -> instance;
      (** timed as [setup_s]; the context carries the phase's counters and
          spans *)
}

(* --- temporary files, inside the working directory --- *)

let tmp_dir = ".e2e-tmp"
let tmp_counter = ref 0

let tmp_file name =
  if not (Sys.file_exists tmp_dir) then Sys.mkdir tmp_dir 0o755;
  incr tmp_counter;
  Filename.concat tmp_dir
    (Printf.sprintf "%s-%d-%d.jsonl" name (Unix.getpid ()) !tmp_counter)

let remove path = if Sys.file_exists path then Sys.remove path

let remove_tmp_dir () =
  if Sys.file_exists tmp_dir && Sys.readdir tmp_dir = [||] then Sys.rmdir tmp_dir

(* --- shared pieces --- *)

(* Postgres plans from exact statistics; it does not apply to queries with
   multi-instance UDFs, where the size-ordered Greedy plan stands in. Any
   plan yields the same cardinality. *)
let reference ~budget (w : Workload.t) queries () =
  List.map
    (fun name ->
      let q = Workload.find_query w name in
      let s = if Strategy.postgres.Strategy.applicable q then Strategy.postgres else Strategy.greedy in
      let o = s.Strategy.run ~rng:(Rng.create 0) ~budget w.Workload.catalog q in
      (name, if o.Strategy.timed_out then None else Some o.Strategy.result_card))
    queries

let probe_queries ~iterations (w : Workload.t) probe plans =
  List.iter
    (fun (query, driver_plan) ->
      Probe.run probe ~iterations
        ~rng:(fun () -> request_rng { query; variant = 0 })
        ~driver_plan w.Workload.catalog (Workload.find_query w query))
    plans

let shuffled rng xs =
  let a = Array.of_list xs in
  Rng.shuffle rng a;
  Array.to_list a

let file_lines path =
  if not (Sys.file_exists path) then 0
  else In_channel.with_open_text path (fun ic ->
      let rec go n = match In_channel.input_line ic with Some _ -> go (n + 1) | None -> n in
      go 0)

(* --- one client, whole passes --- *)

(* A pass is [rounds] rounds over [requests], each round in a fresh
   seed-drawn order. Only whole passes run, so every request runs equally
   often and per-pass counts (objects, failures) repeat exactly.
   [begin_round r] returns the strategy for round [r] of a pass. *)
let single_client ~seed ~ctx ~generate_s ~budget ~iterations ~(w : Workload.t)
    ~requests ~rounds ~begin_round ~phase_extra ~close =
  let order = Rng.create seed in
  let env = Ctx.to_env ctx in
  let queries = List.sort_uniq compare (List.map (fun r -> r.query) requests) in
  let run ~min_passes seconds =
    let latencies = ref [] and costs = ref [] and results = ref [] in
    let attempted = ref 0 and failed = ref 0 and plans = ref [] in
    let t0 = Timer.now () in
    let rec passes k =
      if k >= min_passes && Timer.now () -. t0 >= seconds then k
      else begin
        for round = 0 to rounds - 1 do
          let strategy = begin_round round in
          List.iter
            (fun req ->
              let q = Workload.find_query w req.query in
              incr attempted;
              let t1 = Timer.now () in
              match
                Ctx.with_span ctx "bench.request"
                  ~attrs:[ ("query", Span.Str req.query) ]
                  (fun _ ->
                    strategy.Strategy.run ~env ~rng:(request_rng req) ~budget
                      w.Workload.catalog q)
              with
              | exception _ -> incr failed
              | o when o.Strategy.timed_out -> incr failed
              | o ->
                latencies :=
                  (Printf.sprintf "%d/%s" round (request_name req), Timer.now () -. t1)
                  :: !latencies;
                costs := o.Strategy.cost :: !costs;
                results := (req.query, o.Strategy.result_card) :: !results;
                if k = 0 && round = 0 && req.variant = 0 then
                  plans := (req.query, o.Strategy.plan) :: !plans)
            (shuffled order requests)
        done;
        passes (k + 1)
      end
    in
    let _ = passes 0 in
    { latencies = !latencies;
      costs = !costs;
      results = !results;
      attempted = !attempted;
      failed = !failed;
      wall = Timer.now () -. t0;
      pass_size = rounds * List.length requests;
      plans = !plans;
      served = [];
      extra = phase_extra () }
  in
  { generate_s;
    reference = reference ~budget w queries;
    run;
    probe = (fun probe phase -> probe_queries ~iterations w probe phase.plans);
    close }

(* Variant v of a query plans on its own fixed RNG stream. *)
let requests ~variants queries =
  List.concat_map
    (fun query -> List.init variants (fun variant -> { query; variant }))
    queries

(* The 30 IMDB queries of four or five instances. 6- and 7-instance
   queries plan for 0.8 s and 3.3 s each, so a pass over all 60 would
   outlast a run; the 3-instance ones (15 ms) would put the median in the
   gap between 60 ms and 100 ms, where it jumps with every disturbance. *)
let imdb_plan ?(scale = quick.Experiments.imdb_scale)
    ?(iterations = quick.Experiments.monsoon_iterations) ?queries () =
  { name = "imdb-plan";
    setup =
      (fun ~seed ctx ->
        let w, generate_s =
          Timer.time (fun () -> Imdb.workload { Imdb.seed = data_seed; scale })
        in
        let names =
          match queries with
          | Some qs -> qs
          | None ->
            List.filter_map
              (fun (n, q) ->
                let k = Query.n_rels q in
                if k = 4 || k = 5 then Some n else None)
              w.Workload.queries
        in
        let strategy = Strategy.monsoon ~iterations prior in
        single_client ~seed ~ctx ~generate_s ~budget:quick.Experiments.imdb_budget
          ~iterations ~w ~requests:(requests ~variants:1 names) ~rounds:1
          ~begin_round:(fun _ -> strategy)
          ~phase_extra:(fun () -> []) ~close:ignore) }

(* Correlated predicates blow up intermediates: at scale 0.3 with 50
   iterations, execution is about two thirds of the wall time (150
   iterations put the planner back in front), and the process peaks near
   0.7 GB. Scale 0.6 doubles the execution share's lead but peaks at
   2.4 GB and times out on four queries. *)
let ott_exec ?(scale = 0.3) ?(iterations = 50) ?queries () =
  { name = "ott-exec";
    setup =
      (fun ~seed ctx ->
        let w, generate_s =
          Timer.time (fun () ->
              Ott.workload { Ott.seed = data_seed; scale; domain = 100 })
        in
        let names =
          match queries with Some qs -> qs | None -> List.map fst w.Workload.queries
        in
        let strategy = Strategy.monsoon ~iterations prior in
        single_client ~seed ~ctx ~generate_s ~budget:1e7 ~iterations ~w
          ~requests:(requests ~variants:1 names) ~rounds:1
          ~begin_round:(fun _ -> strategy)
          ~phase_extra:(fun () -> []) ~close:ignore) }

let udf_config scale =
  { Udf_bench.seed = data_seed; imdb_scale = scale; tpch_scale = scale }

(* Each pass starts from an empty observation log and reopens it at every
   round, so round 1 is cold and later rounds replay the growing log. *)
let udf_warm ?(scale = quick.Experiments.udf_imdb_scale) ?(rounds = 3)
    ?(iterations = quick.Experiments.monsoon_iterations) ?queries () =
  { name = "udf-warm";
    setup =
      (fun ~seed ctx ->
        let w, generate_s =
          Timer.time (fun () -> Udf_bench.workload (udf_config scale))
        in
        let names =
          match queries with Some qs -> qs | None -> List.map fst w.Workload.queries
        in
        let log = tmp_file "udf-warm-repo" in
        let opens = ref [] in
        let begin_round round =
          if round = 0 then remove log;
          let repo, dt =
            Ctx.with_span ctx "bench.repo_open" (fun _ ->
                Timer.time (fun () -> Stats_repo.open_ log))
          in
          opens := dt :: !opens;
          Strategy.monsoon ~iterations ~stats_repo:repo prior
        in
        let phase_extra () =
          let open_ms = Metrics.median (List.map (fun s -> 1000.0 *. s) !opens) in
          opens := [];
          [ ("stats_repo.open_ms_p50", open_ms);
            ("stats_repo.log_lines_final", float_of_int (file_lines log)) ]
        in
        single_client ~seed ~ctx ~generate_s ~budget:quick.Experiments.udf_budget
          ~iterations ~w ~requests:(requests ~variants:1 names) ~rounds
          ~begin_round ~phase_extra ~close:(fun () -> remove log)) }

(* --- serving --- *)

let completed status = status = "ok" || status = "degraded"

(* One execution slot and two closed-loop clients, so a request can wait
   for the slot. The clients share whole seed-ordered passes, like the
   single-client workloads, and the handler plans each request on its fixed
   RNG in place of the server's (seed, id) stream: with Loadgen's random
   query draws and id-derived RNGs, mean objects moved 19% between seeds. *)
let serve_udf ?(scale = quick.Experiments.udf_imdb_scale)
    ?(iterations = quick.Experiments.monsoon_iterations) () =
  { name = "serve-udf";
    setup =
      (fun ~seed ctx ->
        let profile =
          { quick with
            Experiments.ctx;
            udf_imdb_scale = scale;
            udf_tpch_scale = scale;
            monsoon_iterations = iterations }
        in
        let (handler, names), generate_s =
          Timer.time (fun () ->
              match Experiments.service profile ~experiment:"udf" () with
              | Ok hn -> hn
              | Error e -> failwith e)
        in
        let fixed_rng ~id ~rng:_ ~env ~recorder ~trace name =
          let r = request_of_name name in
          handler ~id ~rng:(request_rng r) ~env ~recorder ~trace r.query
        in
        let qlog_path = tmp_file "serve-udf-qlog" in
        let qlog =
          match Qlog.create qlog_path with Ok q -> q | Error e -> failwith e
        in
        let server =
          Server.create ~env:(Ctx.to_env ctx) ~queries:names
            { Server.default_config with
              Server.max_concurrent = 1;
              queue_bound = 16;
              explain_ring = 64;
              seed;
              qlog = Some qlog }
            fixed_rng
        in
        let close () =
          Server.stop server;
          Qlog.close qlog;
          remove qlog_path
        in
        let requests = requests ~variants:2 names in
        let order = Rng.create seed in
        let run ~min_passes seconds =
          let client = Load_client.in_process server in
          let lock = Mutex.create () in
          let pending = Queue.create () and passes = ref 0 and samples = ref [] in
          let t0 = Timer.now () in
          (* The next request, starting a new pass only while time remains:
             every pass is issued whole. *)
          let next () =
            Mutex.protect lock (fun () ->
                if Queue.is_empty pending
                   && (!passes < min_passes || Timer.now () -. t0 < seconds)
                then begin
                  incr passes;
                  List.iter (fun r -> Queue.push r pending) (shuffled order requests)
                end;
                Queue.take_opt pending)
          in
          let rec client_loop () =
            match next () with
            | None -> ()
            | Some r ->
              let t1 = Timer.now () in
              let answer = Load_client.query client (request_name r) in
              let latency = Timer.now () -. t1 in
              Mutex.protect lock (fun () -> samples := (r, latency, answer) :: !samples);
              client_loop ()
          in
          Ctx.with_span ctx "bench.load" (fun _ ->
              List.iter Thread.join (List.init 2 (fun _ -> Thread.create client_loop ())));
          let wall = Timer.now () -. t0 in
          Server.stop server;
          Qlog.close qlog;
          let records =
            match Qlog.load qlog_path with Ok rs -> rs | Error e -> failwith e
          in
          let done_ = List.filter (fun r -> completed r.Qlog.r_outcome) records in
          let served =
            List.map (fun r -> (r.Qlog.r_trace, r.Qlog.r_latency -. r.Qlog.r_queue_wait)) done_
          in
          let ok =
            List.filter_map
              (fun (r, latency, answer) ->
                match answer with
                | Ok o when completed o.Load_client.o_status ->
                  Some ((request_name r, latency), o.Load_client.o_cost)
                | _ -> None)
              !samples
          in
          { latencies = List.map fst ok;
            costs = List.map snd ok;
            results =
              List.map
                (fun r -> ((request_of_name r.Qlog.r_query).query, r.Qlog.r_result_card))
                done_;
            attempted = List.length !samples;
            failed = List.length !samples - List.length ok;
            wall;
            pass_size = List.length requests;
            plans =
              List.filter_map
                (fun r ->
                  let req = request_of_name r.Qlog.r_query in
                  if req.variant = 0 then Some (req.query, r.Qlog.r_plan) else None)
                done_
              |> List.sort_uniq (fun (a, _) (b, _) -> compare a b);
            served;
            extra =
              [ ( "server.queue_wait_ms_p50",
                  Metrics.median (List.map (fun r -> 1000.0 *. r.Qlog.r_queue_wait) records) );
                ( "server.service_ms_p50",
                  Metrics.median (List.map (fun (_, s) -> 1000.0 *. s) served) );
                ( "qlog.bytes_per_request",
                  Metrics.ratio
                    (float_of_int (Unix.stat qlog_path).Unix.st_size)
                    (float_of_int (List.length records)) ) ] }
        in
        (* The oracle and the probe need the catalog, which the service
           keeps to itself: the same generator call rebuilds it. *)
        let w = lazy (Udf_bench.workload (udf_config scale)) in
        { generate_s;
          reference =
            (fun () -> reference ~budget:quick.Experiments.udf_budget (Lazy.force w) names ());
          run;
          probe = (fun probe phase -> probe_queries ~iterations (Lazy.force w) probe phase.plans);
          close }) }

let all () = [ imdb_plan (); ott_exec (); udf_warm (); serve_udf () ]
