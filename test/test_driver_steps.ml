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

(* --- The first planning call, pinned --- *)

(* The root of a request's first MCTS call on quick-profile queries at the
   profile's 150 iterations: every candidate's action, visits and the bits
   of its mean, plus the call's iteration, expansion and transposition
   counts. [max_steps = 1] ends each run after that call, so the counters
   are the call's own. *)
let first_plan_digest (w : Monsoon_workloads.Workload.t) ~budget name =
  let quick = Monsoon_harness.Experiments.quick in
  let q = List.assoc name w.Monsoon_workloads.Workload.queries in
  let rng =
    Monsoon_harness.Runner.cell_rng ~seed:quick.Monsoon_harness.Experiments.seed
      ~strategy:"Monsoon" ~query:name
  in
  let config =
    { (Monsoon_baselines.Strategy.monsoon_config
         ~iterations:quick.Monsoon_harness.Experiments.monsoon_iterations
         Monsoon_stats.Prior.spike_and_slab ~rng ~budget q)
      with
      Driver.max_steps = 1 }
  in
  let recorder = Recorder.create () in
  let tel = Ctx.with_recorder (Ctx.create ~sink:Span.Null ()) recorder in
  ignore (Driver.run ~env:(Ctx.to_env tel) config w.Monsoon_workloads.Workload.catalog q);
  let counter n = int_of_float (Metric.Counter.value (Ctx.counter tel n)) in
  let candidates =
    List.concat_map
      (function
        | Recorder.Decision { candidates; _ } ->
          List.map
            (fun (c : Recorder.candidate) ->
              Printf.sprintf "%s v=%d m=%Lx" c.Recorder.cand_action
                c.Recorder.cand_visits (Int64.bits_of_float c.Recorder.cand_mean))
            candidates
        | _ -> [])
      (Recorder.events recorder)
  in
  Printf.sprintf "%s n=%d iterations=%d expansions=%d transpositions=%d" name
    (Query.n_rels q) (counter "mcts.iterations") (counter "mcts.expansions")
    (counter "mcts.transpositions")
  :: candidates

let quick_imdb =
  lazy
    (let quick = Monsoon_harness.Experiments.quick in
     Monsoon_workloads.Imdb.workload
       { Monsoon_workloads.Imdb.seed = quick.Monsoon_harness.Experiments.seed;
         scale = quick.imdb_scale })

let quick_udf =
  lazy
    (let quick = Monsoon_harness.Experiments.quick in
     Monsoon_workloads.Udf_bench.workload
       { Monsoon_workloads.Udf_bench.seed = quick.Monsoon_harness.Experiments.seed;
         imdb_scale = quick.udf_imdb_scale;
         tpch_scale = quick.udf_tpch_scale })

let test_first_plan_pinned () =
  let quick = Monsoon_harness.Experiments.quick in
  let imdb = Lazy.force quick_imdb and udf = Lazy.force quick_udf in
  let got =
    List.concat_map
      (first_plan_digest imdb ~budget:quick.Monsoon_harness.Experiments.imdb_budget)
      [ "iq7"; "iq22"; "iq51" ]
    @ first_plan_digest udf ~budget:quick.udf_budget "uq1"
  in
  Alcotest.(check (list string)) "root statistics"
    [ "iq7 n=3 iterations=150 expansions=150 transpositions=249";
      "plan ci \u{2a1d} n v=31 m=c0abdedde47e7141";
      "plan t \u{2a1d} ci v=27 m=c0e35093bb626524";
      "plan \u{3a3}(t) v=31 m=c0b47fac1e2cee59";
      "plan \u{3a3}(ci) v=30 m=c0bcb3bd1bd0533d";
      "plan \u{3a3}(n) v=31 m=c0b199d54d10173c";
      "iq22 n=5 iterations=150 expansions=150 transpositions=186";
      "plan mc \u{2a1d} ct v=17 m=c0d96a1172bcb1ce";
      "plan mc \u{2a1d} cn v=17 m=c0c255318d5ce46d";
      "plan t \u{2a1d} kt v=17 m=c10056a212cfcaff";
      "plan t \u{2a1d} mc v=13 m=c14351add63b1509";
      "plan \u{3a3}(t) v=17 m=c0d29784571e4ce6";
      "plan \u{3a3}(mc) v=18 m=c0be9539b566c65b";
      "plan \u{3a3}(cn) v=17 m=c0c908c86e0bea3b";
      "plan \u{3a3}(ct) v=17 m=c10798862296d261";
      "plan \u{3a3}(kt) v=17 m=c0e47520c5b661c9";
      "iq51 n=5 iterations=150 expansions=150 transpositions=185";
      "plan mc \u{2a1d} cn v=17 m=c106769998ed8bfa";
      "plan t \u{2a1d} mc v=18 m=c0d295f2ee499d56";
      "plan ci \u{2a1d} n v=17 m=c0fc6ac98d04ef3a";
      "plan ci \u{2a1d} t v=13 m=c143b67b16ab7e91";
      "plan \u{3a3}(ci) v=17 m=c12e2f3ee29764fc";
      "plan \u{3a3}(t) v=17 m=c110de3549099732";
      "plan \u{3a3}(n) v=18 m=c0d01732356cc919";
      "plan \u{3a3}(mc) v=15 m=c12f495ed0fcca37";
      "plan \u{3a3}(cn) v=18 m=c0d28a80bea97f2a";
      "uq1 n=3 iterations=150 expansions=150 transpositions=248";
      "plan ci \u{2a1d} n v=37 m=c0b6cd7ade3d4b69";
      "plan t \u{2a1d} ci v=26 m=c0c06622963214f9";
      "plan \u{3a3}(t) v=27 m=c0bf4804ad097513";
      "plan \u{3a3}(ci) v=24 m=c0c174212cb84d73";
      "plan \u{3a3}(n) v=36 m=c0b7d134b76feb29" ]
    got

(* A planner deadline cancelled before the run: the first planning call
   runs no iteration and comes back empty from a non-terminal state, which
   ends the run timed out with a note, not as a finished run. *)
let test_planner_deadline_expired () =
  let imdb = Lazy.force quick_imdb in
  let q = List.assoc "iq7" imdb.Monsoon_workloads.Workload.queries in
  let dl = Deadline.after 3600.0 in
  Deadline.cancel dl;
  let base = config ~seed:5 () in
  let config =
    { base with
      Driver.mcts = { base.Driver.mcts with Monsoon_mcts.Mcts.deadline = dl } }
  in
  let recorder = Recorder.create () in
  let tel = Ctx.with_recorder (Ctx.create ~sink:Span.Null ()) recorder in
  let outcome =
    Driver.run ~env:(Ctx.to_env tel) config imdb.Monsoon_workloads.Workload.catalog q
  in
  Alcotest.(check bool) "timed out" true outcome.Driver.timed_out;
  Alcotest.(check int) "executes" 0 outcome.Driver.executes;
  Alcotest.(check (float 0.0)) "iterations" 0.0
    (Metric.Counter.value (Ctx.counter tel "mcts.iterations"));
  Alcotest.(check (list string)) "trajectory"
    [ "start iq7 n=3";
      "note 0 deadline expired before the planner's first iteration";
      "finish steps=0 cost=0 timed_out=true card=0" ]
    (digest recorder)

let () =
  Alcotest.run "driver steps"
    [ ( "early exit",
        [ Alcotest.test_case "budget out mid-plan" `Quick
            test_budget_out_mid_plan;
          Alcotest.test_case "deadline mid-execute" `Quick
            test_deadline_mid_execute ] );
      ( "single relation",
        [ Alcotest.test_case "one scan, one execute" `Quick
            test_single_relation ] );
      ( "first plan",
        [ Alcotest.test_case "root statistics pinned" `Quick
            test_first_plan_pinned;
          Alcotest.test_case "planner deadline expired" `Quick
            test_planner_deadline_expired ] ) ]
