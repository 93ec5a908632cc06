(* Characterization of the driver's EXECUTE step on its early-exit paths:
   the exact flight-recorder trajectory when the budget runs out mid-plan
   and when the deadline trips mid-execute, plus the counters and spans of
   a single-relation query. *)

open Monsoon_util
open Monsoon_storage
open Monsoon_relalg
open Monsoon_core
open Monsoon_telemetry

let digest recorder = List.map Fixtures.event_digest (Recorder.events recorder)

let config ?(budget = 1e8) ~seed () =
  { (Driver.default_config ~rng:(Rng.create seed)) with
    Driver.budget;
    mcts =
      { (Monsoon_mcts.Mcts.default_config ~rng:(Rng.create seed)) with
        Monsoon_mcts.Mcts.iterations = 200 } }

let recorded ?(env = Env.default) config cat q =
  let recorder = Recorder.create () in
  let tel = Ctx.with_recorder (Ctx.create ~sink:Span.Null ()) recorder in
  let outcome = Driver.run ~env:(Ctx.to_env ~env tel) config cat q in
  (outcome, digest recorder)

let test_budget_out_mid_plan () =
  let rng = Rng.create 92 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:1000 ~d_s:1 ~d_t:1 in
  let outcome, events = recorded (config ~budget:11500.0 ~seed:4 ()) cat q in
  Alcotest.(check bool) "timed out" true outcome.Driver.timed_out;
  (* The second EXECUTE dies inside (S ⨝ [R,T]): its event still lists
     every planned node, the cached ones observed from the catalog. *)
  Alcotest.(check (list string)) "trajectory"
    [ "start sec2.3 n=3";
      "decide 0 plan R \u{2a1d} T of 5";
      "decide 1 EXECUTE of 7";
      "stat 1 [R,T]=10000";
      "stat 1 T=10";
      "stat 1 R=1000";
      "executed 1 cost=10000 timed_out=false [(R \u{2a1d} T)@0 pred=35.458 \
       obs=10000; R@1 pred=1000 obs=1000; T@1 pred=10 obs=10]";
      "decide 2 plan \u{3a3}(T) of 6";
      "decide 3 plan S \u{2a1d} [R,T] of 6";
      "decide 4 EXECUTE of 2";
      "executed 4 cost=0 timed_out=true [(S \u{2a1d} [R,T])@0 pred=10 obs=-; \
       S@1 pred=10 obs=-; [R,T]@1 pred=- obs=10000; T@0 pred=- obs=10]";
      "finish steps=5 cost=10000 timed_out=true card=0" ]
    events

(* The R ⋈ S ⋈ T query of Sec 2.3 with an opaque select on R whose first
   evaluation cancels the run's deadline: the trip happens inside the
   first EXECUTE that scans R, deterministically. *)
let test_deadline_mid_execute () =
  let rng = Rng.create 93 in
  let dl = Deadline.after 3600.0 in
  let b = Query.Builder.create ~name:"trip" in
  let r = Query.Builder.rel b ~table:"R" ~alias:"R" in
  let s = Query.Builder.rel b ~table:"S" ~alias:"S" in
  let t = Query.Builder.rel b ~table:"T" ~alias:"T" in
  let f1 = Query.Builder.term b (Udf.identity "a") [ (r, "a") ] in
  let f2 = Query.Builder.term b (Udf.identity "b") [ (s, "b") ] in
  let f3 = Query.Builder.term b (Udf.identity "c") [ (r, "c") ] in
  let f4 = Query.Builder.term b (Udf.identity "d") [ (t, "d") ] in
  let trip =
    Query.Builder.term b
      (Udf.make "trip" (fun args ->
           Deadline.cancel dl;
           args.(0)))
      [ (r, "a") ]
  in
  Query.Builder.join_pred b f1 f2;
  Query.Builder.join_pred b f3 f4;
  Query.Builder.select_pred b trip (Value.Int 1);
  let q = Query.Builder.build b in
  let cat = Fixtures.sec23_catalog rng ~scale:1000 ~d_s:10 ~d_t:10 in
  let outcome, events =
    recorded
      ~env:(Env.with_deadline Env.default dl)
      (config ~seed:7 ()) cat q
  in
  Alcotest.(check bool) "timed out" true outcome.Driver.timed_out;
  Alcotest.(check (list string)) "trajectory"
    [ "start trip n=3";
      "decide 0 plan R \u{2a1d} T of 5";
      "decide 1 EXECUTE of 7";
      "note 1 deadline expired mid-execute";
      "finish steps=2 cost=0 timed_out=true card=0" ]
    events

(* A one-instance query takes the scan shortcut: no planning, one scan. *)
let test_single_relation () =
  let rng = Rng.create 94 in
  let b = Query.Builder.create ~name:"solo" in
  let r = Query.Builder.rel b ~table:"R" ~alias:"R" in
  let fa = Query.Builder.term b (Udf.identity "a") [ (r, "a") ] in
  Query.Builder.select_pred b fa (Value.Int 1);
  let q = Query.Builder.build b in
  let cat = Fixtures.sec23_catalog rng ~scale:1000 ~d_s:10 ~d_t:10 in
  let buf = Span.memory_buffer () in
  let recorder = Recorder.create () in
  let tel = Ctx.create ~sink:(Span.Memory buf) ~recorder () in
  let outcome = Driver.run ~env:(Ctx.to_env tel) (config ~seed:8 ()) cat q in
  Ctx.flush tel;
  Alcotest.(check bool) "completes" false outcome.Driver.timed_out;
  Alcotest.(check (float 0.0)) "result is the filtered scan"
    (float_of_int (Fixtures.brute_force_count cat q))
    outcome.Driver.result_card;
  let spans =
    List.filter
      (fun (s : Span.t) -> s.Span.name = "driver.execute")
      (Span.buffer_spans buf)
  in
  let qlog =
    Qlog.of_events ~trace:"t" ~query:"solo" ~strategy:"monsoon" ~outcome:"ok"
      ~latency:0.0 ~queue_wait:0.0 (Recorder.events recorder)
  in
  Alcotest.(check (list int))
    "outcome / counter / spans / qlog executes" [ 1; 1; 1; 1 ]
    [ outcome.Driver.executes;
      int_of_float (Metric.Counter.value (Ctx.counter tel "driver.executes"));
      List.length spans;
      qlog.Qlog.r_executes ]

let () =
  Alcotest.run "driver steps"
    [ ( "early exit",
        [ Alcotest.test_case "budget out mid-plan" `Quick
            test_budget_out_mid_plan;
          Alcotest.test_case "deadline mid-execute" `Quick
            test_deadline_mid_execute ] );
      ( "single relation",
        [ Alcotest.test_case "one scan, one execute" `Quick
            test_single_relation ] ) ]
