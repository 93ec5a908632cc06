(* The decision flight recorder: trajectory invariants on a real driver run,
   q-error arithmetic, export stability under a fixed seed, and the explain
   report. *)

open Monsoon_util
open Monsoon_core
open Monsoon_telemetry

(* One seeded 3-join driver run with the recorder (and a registry, for the
   counter cross-checks) attached. *)
let recorded_run ~seed =
  let rng = Rng.create 91 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:1000 ~d_s:1 ~d_t:10 in
  let config =
    { (Driver.default_config ~rng:(Rng.create seed)) with
      Driver.budget = 1e8;
      mcts =
        { (Monsoon_mcts.Mcts.default_config ~rng:(Rng.create seed)) with
          Monsoon_mcts.Mcts.iterations = 400 } }
  in
  let tel = Ctx.create ~sink:Span.Null () in
  let recorder = Recorder.create () in
  let outcome =
    Driver.run ~env:(Ctx.to_env (Ctx.with_recorder tel recorder)) config cat q
  in
  (outcome, recorder, tel)

let nodes_of recorder =
  List.concat_map
    (function Recorder.Executed { nodes; _ } -> nodes | _ -> [])
    (Recorder.events recorder)

let test_trajectory_invariants () =
  let outcome, recorder, tel = recorded_run ~seed:5 in
  let events = Recorder.events recorder in
  Alcotest.(check bool) "has events" true (events <> []);
  (match List.hd events with
  | Recorder.Query_start { query; n_rels; state_key } ->
    Alcotest.(check string) "query name" "sec2.3" query;
    Alcotest.(check int) "three instances" 3 n_rels;
    Alcotest.(check bool) "initial state id is 32 lowercase hex digits" true
      (String.length state_key = 32
      && String.for_all
           (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
           state_key)
  | _ -> Alcotest.fail "first event must be Query_start");
  (match List.nth events (List.length events - 1) with
  | Recorder.Query_finish { steps; timed_out; cost; result_card } ->
    Alcotest.(check bool) "terminal, not timed out" false timed_out;
    Alcotest.(check (float 1e-9)) "cost matches outcome" outcome.Driver.cost
      cost;
    Alcotest.(check (float 1e-9)) "result card matches"
      outcome.Driver.result_card result_card;
    (* The recorder's step count is the driver.steps counter delta, which
       is also the number of Decision events. *)
    let decisions =
      List.length
        (List.filter
           (function Recorder.Decision _ -> true | _ -> false)
           events)
    in
    Alcotest.(check int) "steps = #decisions" decisions steps;
    let c_steps = Ctx.counter tel "driver.steps" in
    Alcotest.(check int) "steps = counter" steps
      (int_of_float (Metric.Counter.value c_steps))
  | _ -> Alcotest.fail "last event must be Query_finish");
  (* Decisions carry full root statistics and the chosen action is one of
     the candidates. *)
  List.iter
    (function
      | Recorder.Decision { chosen; candidates; root_visits; legal_actions; _ }
        ->
        Alcotest.(check bool) "has candidates" true (candidates <> []);
        Alcotest.(check bool) "chosen among candidates" true
          (List.exists
             (fun (c : Recorder.candidate) -> c.Recorder.cand_action = chosen)
             candidates);
        Alcotest.(check bool) "candidates within legal actions" true
          (List.length candidates <= legal_actions);
        Alcotest.(check bool) "visits sum to root" true
          (List.fold_left
             (fun acc (c : Recorder.candidate) -> acc + c.Recorder.cand_visits)
             0 candidates
          <= root_visits)
      | _ -> ())
    events;
  (* Executed events happened, and every q-error is well-formed. *)
  let nodes = nodes_of recorder in
  Alcotest.(check bool) "materialized nodes recorded" true (nodes <> []);
  List.iter
    (fun (n : Recorder.exec_node) ->
      match n.Recorder.node_q_error with
      | Some qe ->
        Alcotest.(check bool) "q-error >= 1" true (qe >= 1.0);
        Alcotest.(check bool) "q-error implies both sides" true
          (n.Recorder.node_predicted <> None
          && n.Recorder.node_observed <> None)
      | None -> ())
    nodes;
  Alcotest.(check bool) "at least one prediction scored" true
    (List.exists (fun (n : Recorder.exec_node) -> n.Recorder.node_q_error <> None)
       nodes)

let test_qerror_histogram_populated () =
  let _, recorder, tel = recorded_run ~seed:5 in
  let h = Ctx.histogram tel "driver.q_error" in
  let scored =
    List.length
      (List.filter
         (fun (n : Recorder.exec_node) -> n.Recorder.node_q_error <> None)
         (nodes_of recorder))
  in
  Alcotest.(check int) "histogram count = scored nodes" scored
    (Metric.Histogram.count h);
  let h_replans = Ctx.histogram tel "driver.replans_per_query" in
  Alcotest.(check int) "one replan observation per query" 1
    (Metric.Histogram.count h_replans)

let test_qerror_arithmetic () =
  Alcotest.(check (float 1e-9)) "exact" 1.0
    (Recorder.q_error ~predicted:42.0 ~observed:42.0);
  Alcotest.(check (float 1e-9)) "over" 10.0
    (Recorder.q_error ~predicted:1000.0 ~observed:100.0);
  Alcotest.(check (float 1e-9)) "under" 10.0
    (Recorder.q_error ~predicted:100.0 ~observed:1000.0);
  (* Zero observations clamp instead of dividing by zero. *)
  Alcotest.(check (float 1e-9)) "empty result" 50.0
    (Recorder.q_error ~predicted:50.0 ~observed:0.0);
  Alcotest.(check (float 1e-9)) "both below one" 1.0
    (Recorder.q_error ~predicted:0.0 ~observed:0.5)

(* Wall-clock planning times are the one non-deterministic field. *)
let rec strip_timing = function
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "plan_seconds" then None else Some (k, strip_timing v))
         fields)
  | Json.Arr xs -> Json.Arr (List.map strip_timing xs)
  | j -> j

let test_export_stability () =
  (* Two runs under the same seed record identical trajectories, so the
     exports are byte-identical (golden stability) up to wall-clock
     timings. *)
  let _, r1, _ = recorded_run ~seed:5 in
  let _, r2, _ = recorded_run ~seed:5 in
  Alcotest.(check string) "dot deterministic" (Recorder.to_dot r1)
    (Recorder.to_dot r2);
  Alcotest.(check string) "json deterministic"
    (Json.to_string (strip_timing (Recorder.to_json r1)))
    (Json.to_string (strip_timing (Recorder.to_json r2)));
  let dot = Recorder.to_dot r1 in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 8 && String.sub dot 0 8 = "digraph ");
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has edges" true (contains dot "->");
  Alcotest.(check bool) "marks the chosen edge" true (contains dot "color=red");
  (* The JSON round-trips through the in-repo parser. *)
  match Json.of_string (Json.to_string (Recorder.to_json r1)) with
  | Ok (Json.Arr events) ->
    Alcotest.(check int) "all events exported"
      (List.length (Recorder.events r1))
      (List.length events)
  | Ok _ -> Alcotest.fail "expected a JSON array"
  | Error msg -> Alcotest.failf "export does not parse: %s" msg

let test_explain_report () =
  let _, recorder, _ = recorded_run ~seed:5 in
  let report = Explain.report recorder in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "non-empty" true (String.length report > 0);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %S" needle) true
        (contains report needle))
    [ "EXPLAIN sec2.3"; "Decision timeline"; "EXECUTE"; "Q-error";
      "q-error" ];
  Alcotest.(check string) "empty recording" "(empty recording)\n"
    (Explain.report (Recorder.create ()))

let test_null_recorder_records_nothing () =
  let r = Recorder.null () in
  Recorder.record r (Recorder.Note { step = 0; message = "dropped" });
  Alcotest.(check bool) "disabled" false (Recorder.enabled r);
  Alcotest.(check int) "no events" 0 (List.length (Recorder.events r))

let () =
  Alcotest.run "recorder"
    [ ( "flight recorder",
        [ Alcotest.test_case "trajectory invariants" `Quick
            test_trajectory_invariants;
          Alcotest.test_case "q-error histograms" `Quick
            test_qerror_histogram_populated;
          Alcotest.test_case "q-error arithmetic" `Quick test_qerror_arithmetic;
          Alcotest.test_case "export stability" `Quick test_export_stability;
          Alcotest.test_case "explain report" `Quick test_explain_report;
          Alcotest.test_case "null recorder" `Quick
            test_null_recorder_records_nothing ] ) ]
