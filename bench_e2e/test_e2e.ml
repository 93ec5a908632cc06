(* Fast checks of the end-to-end benchmark: the catalogue agrees with
   BENCHMARK.json, every workload emits every metric with its unit at tiny
   sizes, the tail-percentile rule, the planner probe's first-action match,
   and the comparator's verdicts. *)

open E2e
open Monsoon_telemetry

let member name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "BENCHMARK.json: missing %s" name

let str json = Option.get (Json.to_str json)

let benchmark_json () =
  match Json.of_string (In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all) with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let entries name json =
  match member name json with Json.Arr xs -> xs | _ -> Alcotest.failf "%s: not a list" name

let test_catalogue () =
  let j = benchmark_json () in
  let check_specs key specs =
    let listed = entries key j in
    Alcotest.(check (list string))
      (key ^ " names")
      (List.map (fun (s : Metrics.spec) -> s.Metrics.name) specs)
      (List.map (fun e -> str (member "name" e)) listed);
    List.iter2
      (fun (s : Metrics.spec) e ->
        Alcotest.(check string) (s.Metrics.name ^ " unit") s.Metrics.unit_ (str (member "unit" e));
        Alcotest.(check string)
          (s.Metrics.name ^ " better")
          (Metrics.better_name s.Metrics.better)
          (str (member "better" e));
        Alcotest.(check (option (float 0.0)))
          (s.Metrics.name ^ " bound") s.Metrics.bound
          (Option.bind (Json.member "bound" e) Json.to_float))
      specs listed
  in
  check_specs "end_to_end" Metrics.end_to_end;
  check_specs "per_layer" Metrics.per_layer;
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workloads.t) -> w.Workloads.name) (Workloads.all ()))
    (List.map (fun e -> str (member "name" e)) (entries "workloads" j));
  Alcotest.(check (option int))
    "run_seconds" (Some (int_of_float Run.default_seconds))
    (Json.to_int (member "run_seconds" j))

let tiny =
  [ Workloads.imdb_plan ~scale:0.02 ~iterations:10 ~queries:[ "iq1"; "iq2" ] ();
    Workloads.ott_exec ~scale:0.02 ~iterations:10 ~queries:[ "oq1"; "oq2" ] ();
    Workloads.udf_warm ~scale:0.02 ~rounds:2 ~iterations:10 ~queries:[ "uq1"; "uq2" ] ();
    Workloads.serve_udf ~scale:0.02 ~iterations:10 () ]

(* Each metric of [specs] exactly once, in order, finite, and the result
   line carries its unit. *)
let check_emitted specs (r : Run.report) =
  let res = r.Run.result in
  Alcotest.(check bool) "correct" true res.Metrics.correct;
  Alcotest.(check int) "failed" 0 res.Metrics.failed;
  Alcotest.(check bool) "attempted" true (res.Metrics.attempted >= 1);
  Alcotest.(check (list string))
    "metric names"
    (List.map (fun (s : Metrics.spec) -> s.Metrics.name) specs)
    (List.map fst res.Metrics.metrics);
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then Alcotest.failf "%s is not finite" name)
    res.Metrics.metrics;
  let metrics = member "metrics" (Metrics.result_json res) in
  List.iter
    (fun (s : Metrics.spec) ->
      Alcotest.(check string) (s.Metrics.name ^ " unit") s.Metrics.unit_
        (str (member "unit" (member s.Metrics.name metrics))))
    specs

let test_emitted () =
  List.iter
    (fun w ->
      check_emitted Metrics.end_to_end (Run.plain w ~seed:7 ~seconds:0.05);
      let traced = Run.traced w ~seed:7 ~seconds:0.15 in
      check_emitted Metrics.per_layer traced;
      Alcotest.(check (float 0.0))
        (w.Workloads.name ^ " probe.first_action_match") 1.0
        (List.assoc "probe.first_action_match" traced.Run.result.Metrics.metrics))
    tiny;
  Workloads.remove_tmp_dir ()

let test_tail_rule () =
  Alcotest.(check (float 1e-12)) "n=60" (1.0 -. (10.0 /. 60.0)) (Metrics.tail_quantile 60);
  Alcotest.(check (float 1e-12)) "n=400" 0.975 (Metrics.tail_quantile 400);
  Alcotest.(check (float 1e-12)) "tiny n" 0.5 (Metrics.tail_quantile 8);
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> float_of_int (i + 1)) in
      let tail = Metrics.percentile (Metrics.tail_quantile n) xs in
      Alcotest.(check int)
        (Printf.sprintf "ten beyond the tail of %d" n)
        10
        (List.length (List.filter (fun x -> x > tail) xs)))
    [ 60; 100; 150; 600 ];
  let q1, m, q3 = Metrics.quartiles [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 ] in
  (* statistics.quantiles(range(1, 11), n=4) *)
  Alcotest.(check (list (float 1e-12))) "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; m; q3 ]

let test_verdicts () =
  let check spec label expected ~a ~b =
    Alcotest.(check string) label expected
      (Verdict.verdict_name (fst (Verdict.judge spec ~a ~b ~pairs:(List.combine a b))))
  in
  let base = [ 100.0; 101.0; 99.0; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100.3 ] in
  let scaled k = List.map (fun x -> x *. k) base in
  let latency = Metrics.find "latency_p50_ms" in
  let bound = Option.get latency.Metrics.bound in
  check latency "same runs" "unchanged" ~a:base ~b:base;
  check latency "slower, within the bound" "unchanged" ~a:base ~b:(scaled (1.0 +. (bound /. 2.0)));
  check latency "slower beyond the bound" "worse" ~a:base ~b:(scaled (1.0 +. (2.0 *. bound)));
  check latency "faster" "improved" ~a:base ~b:(scaled (1.0 -. (bound /. 2.0)));
  let noisy = List.map (fun x -> 100.0 +. (4.0 *. bound *. (x -. 100.0))) [ 60.0; 140.0; 80.0; 120.0; 100.0; 70.0; 130.0; 90.0; 110.0; 100.0 ] in
  check latency "spread wider than the bound" "unresolved" ~a:noisy ~b:(List.rev noisy);
  let throughput = Metrics.find "queries_per_s" in
  check throughput "throughput up" "improved" ~a:base ~b:(scaled (1.0 +. (bound /. 2.0)));
  check throughput "throughput down beyond the bound" "worse" ~a:base
    ~b:(scaled (1.0 -. (2.0 *. bound)))

let () =
  Alcotest.run "e2e"
    [ ( "e2e",
        [ Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick test_catalogue;
          Alcotest.test_case "every metric emitted with its unit" `Quick test_emitted;
          Alcotest.test_case "tail-percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "comparator verdicts" `Quick test_verdicts ] ) ]
