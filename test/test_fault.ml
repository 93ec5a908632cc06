open Monsoon_util
open Monsoon_baselines
open Monsoon_workloads
open Monsoon_harness
open Monsoon_telemetry

(* --- Fault specs: parsing and the determinism contract --- *)

let test_spec_parse () =
  match Fault.spec_of_string "udf:0.05,worker:1" with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
    Alcotest.(check (float 1e-9)) "udf" 0.05 s.Fault.udf_rate;
    Alcotest.(check (float 1e-9)) "row" 0.0 s.Fault.row_rate;
    Alcotest.(check (float 1e-9)) "build" 0.0 s.Fault.build_rate;
    Alcotest.(check int) "worker" 1 s.Fault.worker_kills

let test_spec_roundtrip () =
  let s =
    { Fault.udf_rate = 0.25; row_rate = 0.5; build_rate = 1.0; worker_kills = 3 }
  in
  match Fault.spec_of_string (Fault.spec_to_string s) with
  | Error msg -> Alcotest.fail msg
  | Ok s' -> Alcotest.(check bool) "round-trips" true (s = s')

let test_spec_rejects () =
  let bad v =
    match Fault.spec_of_string v with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" v)
  in
  bad "";
  bad "udf:1.5";
  bad "udf:-0.1";
  bad "worker:-1";
  bad "worker:0.5";
  bad "gremlin:0.2";
  bad "udf=0.2";
  (* A repeated class is refused, not resolved to its last value. *)
  bad "udf:0.05,udf:0,worker:1";
  bad "worker:1,worker:1"

let gen_rate =
  QCheck.Gen.(
    oneof
      [ float_bound_inclusive 1.0;
        oneofl [ 0.0; 1.0; 0.05; 0.1234567; 1e-9; 5e-324; 1.0 -. epsilon_float ] ])

let gen_spec =
  QCheck.Gen.(
    map
      (fun (udf_rate, row_rate, build_rate, worker_kills) ->
        { Fault.udf_rate; row_rate; build_rate; worker_kills })
      (quad gen_rate gen_rate gen_rate (oneof [ small_nat; oneofl [ 0; max_int ] ])))

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"spec_to_string round-trips every valid spec" ~count:1000
    (QCheck.make ~print:Fault.spec_to_string gen_spec)
    (fun s -> Fault.spec_of_string (Fault.spec_to_string s) = Ok s)

(* Arbitrary bytes, and strings over the spec's own alphabet. *)
let prop_spec_parse_total =
  QCheck.Test.make ~name:"spec_of_string never raises" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         oneof
           [ string;
             string_of
               (oneofl
                  [ 'u'; 'd'; 'f'; 'r'; 'o'; 'w'; 'b'; 'i'; 'l'; 'k'; 'e'; ':'; ',';
                    ' '; '-'; '+'; '.'; '0'; '1'; '5'; '9'; 'x'; 'p'; '_'; 'n'; 'a' ]) ]))
    (fun str ->
      match Fault.spec_of_string str with Ok _ | Error _ -> true)

let test_disabled_is_noop () =
  (* Every checkpoint on the disabled plan is silent. *)
  for _ = 1 to 100 do
    Fault.udf Fault.disabled;
    Fault.row Fault.disabled;
    Fault.build Fault.disabled
  done

let firing_sequence ~seed ~rate ~n =
  let f = Fault.plan { Fault.no_faults with Fault.udf_rate = rate } (Rng.create seed) in
  List.init n (fun _ -> match Fault.udf f with () -> false | exception Fault.Injected _ -> true)

let test_plan_determinism () =
  let a = firing_sequence ~seed:42 ~rate:0.3 ~n:200 in
  let b = firing_sequence ~seed:42 ~rate:0.3 ~n:200 in
  Alcotest.(check bool) "same seed, same firings" true (a = b);
  Alcotest.(check bool) "fires at 0.3 over 200 draws" true (List.mem true a);
  let c = firing_sequence ~seed:43 ~rate:0.3 ~n:200 in
  Alcotest.(check bool) "different seed, different firings" true (a <> c)

let test_rate_zero_plan_is_disabled () =
  (* A plan that never fires — rate 0, or positive rates that miss every
     draw — runs the executor down exactly the disabled plan's paths: the
     same operator profiles and the same fused and scalar counts, on a
     query with opaque terms in its scans, join keys and Σ passes. *)
  let open Monsoon_relalg in
  let open Monsoon_exec in
  let w =
    Udf_bench.workload
      { Udf_bench.seed = 15; imdb_scale = 0.04; tpch_scale = 0.04 }
  in
  let q = Workload.find_query w "uq1" in
  let full =
    List.fold_left
      (fun acc i -> Expr.join acc (Expr.base i))
      (Expr.base 0)
      (List.init (Query.n_rels q - 1) (fun i -> i + 1))
  in
  let steps = [ Expr.stats (Expr.base 0); full; Expr.stats full ] in
  let run fault =
    let tel = Ctx.null () in
    let profile = Profile.create () in
    let exec =
      Executor.create ~profile
        ~env:(Env.with_fault (Ctx.to_env tel) fault)
        w.Workload.catalog q (Executor.budget 1e8)
    in
    let profiles =
      List.concat_map
        (fun e ->
          ignore (Executor.execute exec e);
          List.map
            (fun (n : Executor.node) ->
              Profile.fingerprint q n.Executor.expr
                (Option.get n.Executor.profile))
            (Executor.nodes exec))
        steps
    in
    let count name = Metric.Counter.value (Ctx.counter tel name) in
    (profiles, count "exec.fused_ops", count "exec.scalar_fallbacks")
  in
  let ((_, fused, scalar) as disabled) = run Fault.disabled in
  Alcotest.(check bool) "fused and scalar paths both run" true
    (fused > 0.0 && scalar > 0.0);
  let same label fault =
    Alcotest.(check bool) label true (run fault = disabled)
  in
  same "rate-0 plan" (Fault.plan Fault.no_faults (Rng.create 7));
  same "a plan that never fires"
    (Fault.plan
       { Fault.no_faults with
         Fault.udf_rate = 1e-12; row_rate = 1e-12; build_rate = 1e-12 }
       (Rng.create 7))

let test_rate_zero_never_draws () =
  (* A rate-0 class must not touch the RNG: arming it cannot shift another
     class's stream (and a rate-0 plan fires nothing at all). *)
  let rng = Rng.create 7 in
  let f = Fault.plan Fault.no_faults rng in
  for _ = 1 to 50 do
    Fault.udf f;
    Fault.row f;
    Fault.build f
  done;
  let untouched = Rng.create 7 in
  Alcotest.(check bool) "plan rng never advanced" true
    (Rng.unit_float rng = Rng.unit_float untouched)

(* --- Deadlines and cancellation --- *)

let test_deadline_none () =
  Alcotest.(check bool) "is_none" true (Deadline.is_none Deadline.none);
  Alcotest.(check bool) "never expires" false (Deadline.expired Deadline.none);
  Deadline.cancel Deadline.none;
  (* cancelling the shared sentinel is ignored *)
  Alcotest.(check bool) "still not expired" false (Deadline.expired Deadline.none);
  Deadline.check Deadline.none;
  Alcotest.(check bool) "infinite remaining" true
    (Deadline.remaining Deadline.none = infinity)

let test_deadline_expiry_and_cancel () =
  let d = Deadline.after 0.0 in
  Alcotest.(check bool) "expired immediately" true (Deadline.expired d);
  Alcotest.check_raises "check raises" Deadline.Expired (fun () ->
      Deadline.check d);
  Alcotest.(check (float 1e-9)) "no time left" 0.0 (Deadline.remaining d);
  let c = Deadline.after 3600.0 in
  Alcotest.(check bool) "fresh token live" false (Deadline.expired c);
  Deadline.cancel c;
  Alcotest.(check bool) "cancel trips it" true (Deadline.expired c)

let small_tpch () = Tpch.workload { Tpch.seed = 11; scale = 0.05; skew = Tpch.Plain }

let test_strategy_deadline_times_out () =
  (* An already-expired deadline must come back as a timed-out outcome —
     quickly, and without leaking the exception. *)
  let w = small_tpch () in
  let q = Workload.find_query w "tq1" in
  List.iter
    (fun (s : Strategy.t) ->
      let o =
        s.Strategy.run
          ~env:(Env.with_deadline Env.default (Deadline.after 0.0))
          ~rng:(Rng.create 1) ~budget:1e6 w.Workload.catalog q
      in
      Alcotest.(check bool) (s.Strategy.name ^ " timed out") true
        o.Strategy.timed_out)
    [ Strategy.greedy;
      Strategy.skinner;
      Strategy.monsoon ~iterations:60 ~scale_with_size:false
        Monsoon_stats.Prior.spike_and_slab ]

(* --- Pool: worker kills, respawn, cancellation --- *)

let wait_for ?(timeout = 5.0) pred =
  let t0 = Timer.now () in
  let rec go () =
    if pred () then true
    else if Timer.now () -. t0 > timeout then false
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

let test_pool_kill_respawn () =
  Pool.with_pool 2 (fun p ->
      Pool.inject_kills p 1;
      let xs = List.init 50 Fun.id in
      let ys = Pool.map p (fun x -> x * x) xs in
      Alcotest.(check (list int)) "no task lost to the kill"
        (List.map (fun x -> x * x) xs)
        ys;
      Alcotest.(check bool) "a worker died and was replaced" true
        (wait_for (fun () -> Pool.respawned p >= 1));
      Alcotest.(check int) "capacity conserved" 2 (Pool.size p);
      (* The pool keeps working after the churn. *)
      Alcotest.(check (list int)) "usable after respawn" [ 2; 4 ]
        (Pool.map p (fun x -> 2 * x) [ 1; 2 ]))

let test_pool_cancel () =
  Pool.with_pool 2 (fun p ->
      let cancel = Deadline.after 3600.0 in
      Deadline.cancel cancel;
      (match Pool.map ~cancel p Fun.id (List.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected Deadline.Expired"
      | exception Deadline.Expired -> ());
      (* A cancelled call leaves the pool usable. *)
      Alcotest.(check (list int)) "usable after cancel" [ 1; 2 ]
        (Pool.map p Fun.id [ 1; 2 ]))

(* --- Suite-level resilience: the properties the chaos command relies on --- *)

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
                    o.Strategy.degraded, o.Strategy.plan ))
                c.Runner.outcome ))
          r.Runner.cells ))
    rows

let suite_strategies () =
  [ Strategy.defaults; Strategy.greedy; Strategy.sampling;
    Strategy.monsoon ~iterations:60 ~scale_with_size:false
      Monsoon_stats.Prior.spike_and_slab ]

let suite_config ?faults ?(jobs = 1) () =
  { Runner.default_config with
    Runner.budget = 1e6;
    seed = 11;
    queries = Some [ "tq1"; "tq2"; "tq12" ];
    jobs;
    faults }

let test_rate_zero_plan_is_byte_identical () =
  (* The headline property: arming the fault plane at rate 0 changes
     nothing — rows, attempts, recorder-visible outcomes, and the
     fault.injected counter are all exactly as without a plane. *)
  let w = small_tpch () in
  let run faults =
    let tel = Ctx.null () in
    let rows =
      Runner.run_suite ~env:(Ctx.to_env tel) (suite_config ?faults ())
        (suite_strategies ()) w
    in
    let injected =
      Metric.Counter.value (Ctx.counter tel "fault.injected")
    in
    (fingerprint rows, injected)
  in
  let bare, injected_bare = run None in
  let armed, injected_armed = run (Some Fault.no_faults) in
  Alcotest.(check bool) "rows byte-identical" true (bare = armed);
  Alcotest.(check (float 0.0)) "no injections without plane" 0.0 injected_bare;
  Alcotest.(check (float 0.0)) "no injections at rate 0" 0.0 injected_armed

let test_jobs_invariance_under_faults () =
  (* The jobs knob must stay invisible with the fault plane armed: fault
     firing derives from per-cell RNGs, never from scheduling. The kill
     token exercises worker churn on the pooled run. *)
  let w = small_tpch () in
  let faults =
    Some { Fault.no_faults with Fault.build_rate = 0.05; worker_kills = 1 }
  in
  let seq = Runner.run_suite (suite_config ?faults ()) (suite_strategies ()) w in
  let par =
    Runner.run_suite (suite_config ?faults ~jobs:4 ()) (suite_strategies ()) w
  in
  Alcotest.(check bool) "rows identical for jobs=1 and jobs=4" true
    (fingerprint seq = fingerprint par);
  Alcotest.(check bool) "the plan fired" true
    (List.exists
       (fun (r : Runner.row) ->
         List.exists
           (fun (c : Runner.cell) ->
             c.Runner.attempts > 1
             || Option.fold ~none:false
                  ~some:(fun (o : Strategy.outcome) -> o.Strategy.degraded > 0)
                  c.Runner.outcome)
           r.Runner.cells)
       seq)

let test_retry_then_quarantine () =
  (* row:1.0 poisons the first scanned row of every attempt: the cell
     retries its full allowance, then lands in quarantine with the fault
     class recorded — and the aggregate surfaces it as an error. *)
  let w = small_tpch () in
  let tel = Ctx.null () in
  let rows =
    Runner.run_suite ~env:(Ctx.to_env tel)
      { (suite_config ()) with
        Runner.queries = Some [ "tq1" ];
        faults = Some { Fault.no_faults with Fault.row_rate = 1.0 };
        retries = 2 }
      [ Strategy.greedy ] w
  in
  (match rows with
  | [ { Runner.cells = [ c ]; _ } ] ->
    Alcotest.(check bool) "quarantined" true (c.Runner.outcome = None);
    Alcotest.(check (option string)) "fault class recorded" (Some "row")
      c.Runner.error;
    Alcotest.(check int) "used every attempt" 3 c.Runner.attempts
  | _ -> Alcotest.fail "expected one row with one cell");
  let agg = Runner.aggregate ~budget:1e6 (List.hd rows) in
  Alcotest.(check int) "agg counts the error" 1 agg.Runner.errors;
  Alcotest.(check int) "no outcome to aggregate" 0 agg.Runner.n;
  Alcotest.(check (float 0.0)) "retries counted" 2.0
    (Metric.Counter.value (Ctx.counter tel "runner.retries"));
  Alcotest.(check (float 0.0)) "quarantine counted" 1.0
    (Metric.Counter.value (Ctx.counter tel "runner.quarantined"))

let test_degraded_execution () =
  (* A UDF fault during a planned EXECUTE must not kill the run: the driver
     falls back to a left-deep plan, records a Degraded event the explain
     report renders, and the outcome still carries a result. Only the UDF
     suite has opaque terms, so only its queries draw udf checkpoints.
     Seeds are scanned deterministically until one hits the degrade path
     (a fault can also land outside EXECUTE, which retries instead). *)
  let w =
    Udf_bench.workload
      { Udf_bench.seed = 15; imdb_scale = 0.04; tpch_scale = 0.04 }
  in
  let monsoon =
    Strategy.monsoon ~iterations:60 ~scale_with_size:false
      Monsoon_stats.Prior.spike_and_slab
  in
  let queries = List.map fst w.Workload.queries in
  let try_one seed qname =
    let q = Workload.find_query w qname in
    let recorder = Recorder.create () in
    let tel = Ctx.with_recorder (Ctx.null ()) recorder in
    let fault =
      Fault.plan { Fault.no_faults with Fault.udf_rate = 0.05 } (Rng.create seed)
    in
    match
      monsoon.Strategy.run
        ~env:(Env.with_fault (Ctx.to_env tel) fault)
        ~rng:(Rng.create seed) ~budget:1e7 w.Workload.catalog q
    with
    | exception Fault.Injected _ -> None (* fault outside EXECUTE: retry path *)
    | o when o.Strategy.degraded > 0 -> Some (o, recorder, tel)
    | _ -> None
  in
  let hit =
    List.find_map
      (fun seed -> List.find_map (try_one seed) queries)
      (List.init 10 Fun.id)
  in
  match hit with
  | None -> Alcotest.fail "no seed hit the degrade path (raise rate or seeds)"
  | Some (o, recorder, tel) ->
    Alcotest.(check bool) "run completed" false o.Strategy.timed_out;
    let degraded_events =
      List.filter
        (function Recorder.Degraded _ -> true | _ -> false)
        (Recorder.events recorder)
    in
    Alcotest.(check int) "one Degraded event per degraded execute"
      o.Strategy.degraded
      (List.length degraded_events);
    (match degraded_events with
    | Recorder.Degraded { reason; fallback; _ } :: _ ->
      Alcotest.(check string) "reason is the fault class" "udf" reason;
      Alcotest.(check bool) "fallback plan recorded" true
        (String.length fallback > 0)
    | _ -> ());
    let report = Explain.report recorder in
    Alcotest.(check bool) "explain renders the degradation" true
      (let needle = "Degraded execution" in
       let rec search i =
         i + String.length needle <= String.length report
         && (String.sub report i (String.length needle) = needle
            || search (i + 1))
       in
       search 0);
    Alcotest.(check bool) "driver.degraded counted" true
      (Metric.Counter.value (Ctx.counter tel "driver.degraded")
      >= float_of_int o.Strategy.degraded);
    (* The trajectory from the fault on: Degraded, the fallback plan's
       statistics and Executed event, then the finish. The faulted call
       completed t, ci and (t ⨝ ci) before the fault, so their counts were
       hardened before the Degraded event and the fallback's cache hits
       show them. *)
    let rec from_degraded = function
      | (Recorder.Degraded _ :: _) as rest -> rest
      | _ :: rest -> from_degraded rest
      | [] -> []
    in
    Alcotest.(check (list string)) "degraded trajectory"
      [ "degraded 4 udf -> ((t \u{2a1d} ci) \u{2a1d} n)";
        "stat 4 [t,ci,n]=1487";
        "stat 4 n=508";
        "executed 4 cost=0 timed_out=false [((t \u{2a1d} ci) \u{2a1d} n)@0 \
         pred=25.5856 obs=1487; (t \u{2a1d} ci)@1 pred=1218.48 obs=2400; \
         t@2 pred=800 obs=800; ci@2 pred=2400 obs=2400; n@1 pred=6.79863 \
         obs=508]";
        "finish steps=5 cost=0 timed_out=false card=1487" ]
      (List.map Fixtures.event_digest
         (from_degraded (Recorder.events recorder)))

let test_fallback_fault_reraises () =
  (* row:1.0 poisons the first scanned row of every execute call: the
     planned EXECUTE degrades, the fallback faults as well, and the run
     re-raises after a Note so the harness can retry the cell. *)
  let w = small_tpch () in
  let q = Workload.find_query w "tq1" in
  let recorder = Recorder.create () in
  let tel = Ctx.with_recorder (Ctx.null ()) recorder in
  let fault =
    Fault.plan { Fault.no_faults with Fault.row_rate = 1.0 } (Rng.create 3)
  in
  let monsoon =
    Strategy.monsoon ~iterations:60 ~scale_with_size:false
      Monsoon_stats.Prior.spike_and_slab
  in
  (match
     monsoon.Strategy.run
       ~env:(Env.with_fault (Ctx.to_env tel) fault)
       ~rng:(Rng.create 3) ~budget:1e7 w.Workload.catalog q
   with
  | exception Fault.Injected reason ->
    Alcotest.(check string) "re-raised fault class" "row" reason
  | _ -> Alcotest.fail "expected the fallback fault to re-raise");
  Alcotest.(check (list string)) "trajectory"
    [ "start tq1 n=3";
      "decide 0 plan c \u{2a1d} o of 5";
      "decide 1 plan \u{3a3}(c) of 7";
      "decide 2 attach l \u{2a1d} (c \u{2a1d} o) of 3";
      "decide 3 EXECUTE of 2";
      "degraded 3 row -> ((c \u{2a1d} o) \u{2a1d} l)";
      "note 3 fallback plan also faulted: row" ]
    (List.map Fixtures.event_digest (Recorder.events recorder))

let test_mcts_deadline_early_exit () =
  (* An expired deadline stops MCTS gracefully: the search returns a plan
     (from whatever tree exists) instead of raising or spinning. *)
  let w = small_tpch () in
  let q = Workload.find_query w "tq1" in
  let monsoon =
    Strategy.monsoon ~iterations:100_000 ~scale_with_size:false
      Monsoon_stats.Prior.spike_and_slab
  in
  let t0 = Timer.now () in
  let o =
    monsoon.Strategy.run
      ~env:(Env.with_deadline Env.default (Deadline.after 0.05))
      ~rng:(Rng.create 3) ~budget:1e7 w.Workload.catalog q
  in
  Alcotest.(check bool) "timed out cooperatively" true o.Strategy.timed_out;
  Alcotest.(check bool) "did not run the full 100k-iteration search" true
    (Timer.now () -. t0 < 30.0)

let () =
  Alcotest.run "fault"
    [ ( "spec",
        [ Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "rejects" `Quick test_spec_rejects;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
          QCheck_alcotest.to_alcotest prop_spec_parse_total ] );
      ( "plan",
        [ Alcotest.test_case "disabled noop" `Quick test_disabled_is_noop;
          Alcotest.test_case "determinism" `Quick test_plan_determinism;
          Alcotest.test_case "rate 0 never draws" `Quick test_rate_zero_never_draws;
          Alcotest.test_case "rate 0 is disabled" `Quick
            test_rate_zero_plan_is_disabled ] );
      ( "deadline",
        [ Alcotest.test_case "none sentinel" `Quick test_deadline_none;
          Alcotest.test_case "expiry & cancel" `Quick test_deadline_expiry_and_cancel;
          Alcotest.test_case "strategies time out" `Slow test_strategy_deadline_times_out;
          Alcotest.test_case "mcts early exit" `Slow test_mcts_deadline_early_exit ] );
      ( "pool",
        [ Alcotest.test_case "kill & respawn" `Quick test_pool_kill_respawn;
          Alcotest.test_case "cancel" `Quick test_pool_cancel ] );
      ( "resilience",
        [ Alcotest.test_case "rate-0 byte identity" `Slow test_rate_zero_plan_is_byte_identical;
          Alcotest.test_case "jobs invariance under faults" `Slow test_jobs_invariance_under_faults;
          Alcotest.test_case "retry then quarantine" `Quick test_retry_then_quarantine;
          Alcotest.test_case "degraded execution" `Slow test_degraded_execution;
          Alcotest.test_case "fallback fault re-raises" `Quick
            test_fallback_fault_reraises ] ) ]
