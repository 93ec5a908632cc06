(* Metric catalogue, the statistics the benchmark reports, and its result
   line. BENCHMARK.json restates the catalogue (names, units, directions,
   bounds); test_e2e.ml keeps the two in step. *)

open Monsoon_telemetry

type better = Lower | Higher

type spec = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;
      (** share of the baseline median a metric may worsen by before a
          change counts as a regression; end-to-end metrics only *)
}

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

(* Bounds. Objects repeat exactly for a fixed request set, so 2% is room
   for nothing but a changed plan. Times and memory get 25%: on a shared
   2-core VM a pure compute loop varies by 11% (interquartile range over
   30 one-third-second runs) and slow phases last tens of seconds, so the
   spread of ten runs reached 5-15%; memory moves with the request order,
   which decides how much garbage the heaviest query finds. *)
let end_to_end =
  [ e2e "setup_s" "s" Lower 0.25;
    e2e "queries_per_s" "1/s" Higher 0.25;
    e2e "latency_p50_ms" "ms" Lower 0.25;
    e2e "latency_tail_ms" "ms" Lower 0.25;
    e2e "objects_per_query" "count" Lower 0.02;
    e2e "peak_rss_mb" "MB" Lower 0.25 ]

let per_layer =
  [ layer "workloads.generate_ms" "ms" Lower;
    layer "mcts.plan_ms_per_query" "ms" Lower;
    layer "mcts.us_per_iteration" "us" Lower;
    layer "mcts.iterations_per_query" "count" Lower;
    layer "mcts.transposition_share" "share" Higher;
    layer "mcts.nodes_per_query" "count" Lower;
    layer "mdp.legal_actions_ms_per_query" "ms" Lower;
    layer "mdp.legal_actions_calls_per_query" "count" Lower;
    layer "simulator.step_edit_ms_per_query" "ms" Lower;
    layer "simulator.step_execute_ms_per_query" "ms" Lower;
    layer "simulator.step_execute_calls_per_query" "count" Lower;
    layer "mdp.state_key_ms_per_query" "ms" Lower;
    layer "mdp.state_key_calls_per_query" "count" Lower;
    layer "mdp.is_terminal_ms_per_query" "ms" Lower;
    layer "simulator.rollout_policy_ms_per_query" "ms" Lower;
    layer "mcts.tree_self_ms_per_query" "ms" Lower;
    layer "driver.self_ms_per_query" "ms" Lower;
    layer "driver.steps_per_query" "count" Lower;
    layer "driver.executes_per_query" "count" Lower;
    layer "exec.execute_self_ms_per_query" "ms" Lower;
    layer "exec.sigma_ms_per_query" "ms" Lower;
    layer "exec.ns_per_emitted_tuple" "ns" Lower;
    layer "exec.tuples_emitted_per_query" "count" Lower;
    layer "exec.tuples_probed_per_query" "count" Lower;
    layer "exec.sigma_objects_per_query" "count" Lower;
    layer "exec.fused_share" "share" Higher;
    layer "exec.kernel_ops_per_query" "count" Lower;
    layer "stats_repo.open_ms_p50" "ms" Lower;
    layer "stats_repo.log_lines_final" "count" Lower;
    layer "stats_repo.hit_share" "share" Higher;
    layer "stats_repo.lookups_per_query" "count" Lower;
    layer "stats_repo.warm_starts_per_query" "count" Higher;
    layer "stats_repo.entries_written_per_query" "count" Lower;
    layer "server.queue_wait_ms_p50" "ms" Lower;
    layer "server.service_ms_p50" "ms" Lower;
    layer "server.self_ms_p50" "ms" Lower;
    layer "server.rejected" "count" Lower;
    layer "qlog.bytes_per_request" "bytes" Lower;
    layer "gc.minor_words_per_query" "words" Lower;
    layer "gc.major_collections" "count" Lower;
    layer "trace.overhead_share" "share" Lower;
    layer "probe.overhead_share" "share" Lower;
    layer "probe.first_action_match" "share" Higher ]

let find name =
  match List.find_opt (fun s -> s.name = name) (end_to_end @ per_layer) with
  | Some s -> s
  | None -> invalid_arg ("Metrics.find: unknown metric " ^ name)

let better_name = function Lower -> "lower" | Higher -> "higher"

(* --- statistics --- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Percentile by linear interpolation between order statistics (numpy's
   default), so a value moves smoothly when neighbouring samples swap; 0
   for an empty sample. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let i = truncate h in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((h -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = percentile 0.5 xs

(* The highest percentile with at least ten samples beyond it: with n
   samples, q = 1 - 10/n (never below the median for tiny samples). *)
let tail_quantile n = Float.max 0.5 (1.0 -. (10.0 /. float_of_int n))

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Python's [statistics.quantiles(xs, n=4)] (the default exclusive
   method), so the spreads printed here match the ones a reader computes
   from the result files. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Metrics.quartiles: empty sample"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* --- the result line --- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (find name).unit_) ]))
       metrics)

let result_json r =
  Json.Obj
    [ ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json r.metrics) ]

let print_metric (name, v) =
  Printf.printf "  %-42s %14.6g %s\n" name v (find name).unit_
