open Monsoon_util
open Monsoon_relalg
open Monsoon_stats
open Monsoon_core

(* --- The Sec 2.3 planning problem, in pure simulation --- *)

let paper_ctx () =
  Mdp.ctx_of_sizes (Fixtures.sec23_query ()) [| 1e6; 1e4; 1e4 |]

(* Initial state with d(F1,R) = d(F3,R) = 1000 known, as in the paper. *)
let seeded_state ctx =
  let state = Mdp.init_state ctx in
  Stats_catalog.set_distinct state.Mdp.stats ~term:0 ~scope:Stats_catalog.Wildcard 1000.0;
  Stats_catalog.set_distinct state.Mdp.stats ~term:2 ~scope:Stats_catalog.Wildcard 1000.0;
  state

let two_point =
  Prior.custom ~name:"two-point"
    ~sample:(fun rng ~c_own ~c_partner:_ ->
      if Rng.bool rng then 1.0 else Float.min 10_000.0 c_own)
    ()

let point v = Prior.custom ~name:"point" ~sample:(fun _ ~c_own:_ ~c_partner:_ -> v) ()

let sec23_simulator ?(seed = 17) ctx =
  Simulator.create_with ctx
    ~prior_of:(function
      | 1 | 3 -> two_point (* F2, F4 *)
      | _ -> point 1000.0)
    (Rng.create seed)

let r_mask = Relset.singleton 0
let s_mask = Relset.singleton 1
let t_mask = Relset.singleton 2

(* --- Action legality --- *)

let test_initial_actions () =
  let ctx = paper_ctx () in
  let state = seeded_state ctx in
  let actions = Mdp.legal_actions ctx state in
  (* R⨝S, R⨝T (S×T pruned: connected joins exist), Σ(S), Σ(T);
     Σ(R) is pruned because F1 and F3 are already measured. *)
  Alcotest.(check int) "four actions" 4 (List.length actions);
  let has a = List.mem a actions in
  Alcotest.(check bool) "join R S" true (has (Mdp.Join_exec (r_mask, s_mask)));
  Alcotest.(check bool) "join R T" true (has (Mdp.Join_exec (r_mask, t_mask)));
  Alcotest.(check bool) "sigma S" true (has (Mdp.Add_stats_of_exec s_mask));
  Alcotest.(check bool) "sigma T" true (has (Mdp.Add_stats_of_exec t_mask));
  Alcotest.(check bool) "no execute on empty R_p" false (has Mdp.Execute)

let test_sigma_r_offered_when_unmeasured () =
  let ctx = paper_ctx () in
  let state = Mdp.init_state ctx in
  let actions = Mdp.legal_actions ctx state in
  Alcotest.(check bool) "sigma R available" true
    (List.mem (Mdp.Add_stats_of_exec r_mask) actions);
  Alcotest.(check int) "five actions" 5 (List.length actions)

let test_execute_available_after_plan () =
  let ctx = paper_ctx () in
  let state = seeded_state ctx in
  let state = Mdp.apply_plan_edit state (Mdp.Join_exec (r_mask, s_mask)) in
  let actions = Mdp.legal_actions ctx state in
  Alcotest.(check bool) "execute available" true (List.mem Mdp.Execute actions);
  (* The planned R⨝S can be extended with T (mixed join), or Σ-wrapped. *)
  let rs = Expr.join (Expr.leaf r_mask) (Expr.leaf s_mask) in
  Alcotest.(check bool) "mixed join offered" true
    (List.mem (Mdp.Join_mixed (t_mask, rs)) actions);
  Alcotest.(check bool) "wrap sigma offered" true
    (List.mem (Mdp.Wrap_stats rs) actions)

let test_no_duplicate_plans () =
  let ctx = paper_ctx () in
  let state = seeded_state ctx in
  let state = Mdp.apply_plan_edit state (Mdp.Join_exec (r_mask, s_mask)) in
  let actions = Mdp.legal_actions ctx state in
  Alcotest.(check bool) "R⨝S not offered again" false
    (List.mem (Mdp.Join_exec (r_mask, s_mask)) actions)

let test_plan_edit_rejects_execute () =
  let ctx = paper_ctx () in
  Alcotest.check_raises "execute is not an edit"
    (Invalid_argument "Mdp.apply_plan_edit: Execute is not a plan edit")
    (fun () -> ignore (Mdp.apply_plan_edit (Mdp.init_state ctx) Mdp.Execute))

let test_executed_masks () =
  let full = Expr.join (Expr.join (Expr.base 0) (Expr.base 1)) (Expr.base 2) in
  Alcotest.(check (list int)) "join masks" [ 3; 7 ] (Mdp.executed_masks full);
  Alcotest.(check (list int)) "sigma stripped" [ 1 ]
    (Mdp.executed_masks (Expr.stats (Expr.base 0)))

let test_state_key_distinguishes () =
  let ctx = paper_ctx () in
  let s0 = Mdp.init_state ctx in
  let s1 = Mdp.apply_plan_edit s0 (Mdp.Join_exec (r_mask, s_mask)) in
  Alcotest.(check bool) "plans differ" true (Mdp.state_key s0 <> Mdp.state_key s1);
  let s2 = seeded_state ctx in
  Alcotest.(check bool) "stats differ" true (Mdp.state_key s0 <> Mdp.state_key s2)

(* The key is the state's exact contents, not its write history: a
   same-value overwrite keeps it, and a value that agrees with the old one
   to four significant digits changes it. *)
let test_state_key_same_value_overwrite () =
  let ctx = paper_ctx () in
  let s = seeded_state ctx in
  let before = Mdp.state_key s in
  Stats_catalog.set_distinct s.Mdp.stats ~term:0 ~scope:Stats_catalog.Wildcard
    1000.0;
  Alcotest.(check string) "same-value overwrite keeps the key" before
    (Mdp.state_key s)

let test_state_key_overwrite_no_collision () =
  let ctx = paper_ctx () in
  let s = seeded_state ctx in
  let before = Mdp.state_key s in
  Stats_catalog.set_distinct s.Mdp.stats ~term:0 ~scope:Stats_catalog.Wildcard
    1000.4;
  Alcotest.(check bool) "four-digit twin changes the key" true
    (Mdp.state_key s <> before)

let test_terminal () =
  let ctx = paper_ctx () in
  let state = Mdp.init_state ctx in
  Alcotest.(check bool) "not terminal initially" false (Mdp.is_terminal ctx state);
  (* R_e stays ascending and duplicate-free: the full mask follows 1, 2, 4. *)
  let state = { state with Mdp.r_e = state.Mdp.r_e @ [ 7 ] } in
  Alcotest.(check bool) "terminal when full mask present" true
    (Mdp.is_terminal ctx state)

(* --- Simulated transitions --- *)

let expected_cost_of_edits ctx ~seed edits =
  let sim = sec23_simulator ~seed ctx in
  let state =
    List.fold_left (fun s a -> Mdp.apply_plan_edit s a) (seeded_state ctx) edits
  in
  Simulator.expected_execute_cost sim state ~n:4000

let test_sigma_s_costs_one_scan () =
  let ctx = paper_ctx () in
  let c = expected_cost_of_edits ctx ~seed:3 [ Mdp.Add_stats_of_exec s_mask ] in
  Alcotest.(check (float 1.0)) "always 10^4" 1e4 c

let test_guess_plan_expected_cost () =
  (* Executing (R⨝S) costs 10^7 or 10^6 with equal probability. *)
  let ctx = paper_ctx () in
  let c = expected_cost_of_edits ctx ~seed:4 [ Mdp.Join_exec (r_mask, s_mask) ] in
  Alcotest.(check bool) "~5.5e6" true (abs_float (c -. 5.5e6) /. 5.5e6 < 0.05)

let test_full_guess_plan_expected_cost () =
  (* The full plan ((R⨝S)⨝T): final result free, inner join charged. *)
  let ctx = paper_ctx () in
  let rs = Expr.join (Expr.leaf r_mask) (Expr.leaf s_mask) in
  let c =
    expected_cost_of_edits ctx ~seed:5
      [ Mdp.Join_exec (r_mask, s_mask); Mdp.Join_mixed (t_mask, rs) ]
  in
  Alcotest.(check bool) "~5.5e6" true (abs_float (c -. 5.5e6) /. 5.5e6 < 0.05)

let test_execute_transition_updates_state () =
  let ctx = paper_ctx () in
  let sim = sec23_simulator ctx in
  let state =
    Mdp.apply_plan_edit (seeded_state ctx) (Mdp.Add_stats_of_exec s_mask)
  in
  let state', reward = Simulator.step sim state Mdp.Execute in
  Alcotest.(check (float 1.0)) "reward = -10^4" (-1e4) reward;
  Alcotest.(check bool) "R_p cleared" true (state'.Mdp.r_p = []);
  (* Σ(S) hardens a wildcard measurement for F2. *)
  Alcotest.(check bool) "F2 measured" true
    (Stats_catalog.has_measurement state'.Mdp.stats ~term:1);
  (match Stats_catalog.distinct state'.Mdp.stats ~term:1 ~pred:(Some 0) with
  | Some d -> Alcotest.(check bool) "two-point outcome" true (d = 1.0 || d = 1e4)
  | None -> Alcotest.fail "no measurement recorded");
  (* The original state is untouched. *)
  Alcotest.(check bool) "input state unchanged" false
    (Stats_catalog.has_measurement state.Mdp.stats ~term:1)

let test_plan_edits_are_deterministic_steps () =
  let ctx = paper_ctx () in
  let sim = sec23_simulator ctx in
  let state = seeded_state ctx in
  let state', reward = Simulator.step sim state (Mdp.Join_exec (r_mask, s_mask)) in
  Alcotest.(check (float 0.0)) "zero reward" 0.0 reward;
  Alcotest.(check int) "one plan" 1 (List.length state'.Mdp.r_p)

(* After learning d(F2,S) = 10^4, the optimizer can execute the optimal
   ((R⨝S)⨝T) with certainty: cost 10^6. *)
let test_post_observation_certainty () =
  let ctx = paper_ctx () in
  let sim = sec23_simulator ~seed:11 ctx in
  let state = seeded_state ctx in
  Stats_catalog.set_distinct state.Mdp.stats ~term:1 ~scope:Stats_catalog.Wildcard 1e4;
  let rs = Expr.join (Expr.leaf r_mask) (Expr.leaf s_mask) in
  let state =
    List.fold_left (fun s a -> Mdp.apply_plan_edit s a) state
      [ Mdp.Join_exec (r_mask, s_mask); Mdp.Join_mixed (t_mask, rs) ]
  in
  let c = Simulator.expected_execute_cost sim state ~n:500 in
  Alcotest.(check (float 1.0)) "certain 10^6" 1e6 c

(* --- The paper's headline behaviour: MCTS chooses to collect statistics
   first on the Sec 2.3 problem. --- *)

let test_mcts_collects_statistics_first () =
  let ctx = paper_ctx () in
  let sim = sec23_simulator ~seed:1 ctx in
  let problem = Simulator.problem sim in
  let cfg =
    { (Monsoon_mcts.Mcts.default_config ~rng:(Rng.create 42)) with
      Monsoon_mcts.Mcts.iterations = 20_000 }
  in
  match Monsoon_mcts.Mcts.plan cfg problem (seeded_state ctx) with
  | Some (Mdp.Add_stats_of_exec m, _) ->
    Alcotest.(check bool) "scans S or T" true (m = s_mask || m = t_mask)
  | Some (a, _) ->
    Alcotest.failf "expected a Σ action, got %s" (Mdp.describe_action ctx a)
  | None -> Alcotest.fail "no action"

(* --- End-to-end driver on real (small) data --- *)

let test_driver_end_to_end () =
  let rng = Rng.create 91 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:1000 ~d_s:1 ~d_t:10 in
  let config =
    { (Driver.default_config ~rng:(Rng.create 5)) with
      Driver.budget = 1e8;
      mcts =
        { (Monsoon_mcts.Mcts.default_config ~rng:(Rng.create 5)) with
          Monsoon_mcts.Mcts.iterations = 400 } }
  in
  let outcome = Driver.run config cat q in
  Alcotest.(check bool) "completes" false outcome.Driver.timed_out;
  Alcotest.(check bool) "executed at least once" true (outcome.Driver.executes >= 1);
  Alcotest.(check (float 0.5)) "correct result"
    (float_of_int (Fixtures.brute_force_count cat q))
    outcome.Driver.result_card;
  Alcotest.(check bool) "cost accounted" true
    (outcome.Driver.exec_cost +. outcome.Driver.stats_cost = outcome.Driver.cost)

let test_driver_times_out_on_tiny_budget () =
  let rng = Rng.create 92 in
  let q = Fixtures.sec23_query () in
  let cat = Fixtures.sec23_catalog rng ~scale:1000 ~d_s:1 ~d_t:1 in
  let config =
    { (Driver.default_config ~rng:(Rng.create 6)) with
      Driver.budget = 50.0;
      mcts =
        { (Monsoon_mcts.Mcts.default_config ~rng:(Rng.create 6)) with
          Monsoon_mcts.Mcts.iterations = 200 } }
  in
  let outcome = Driver.run config cat q in
  Alcotest.(check bool) "times out" true outcome.Driver.timed_out

let prop_simulated_reward_never_positive =
  QCheck.Test.make ~name:"EXECUTE rewards are non-positive" ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let ctx = paper_ctx () in
      let sim = sec23_simulator ~seed ctx in
      let state =
        Mdp.apply_plan_edit (seeded_state ctx) (Mdp.Join_exec (r_mask, s_mask))
      in
      let _, r = Simulator.step sim state Mdp.Execute in
      r <= 0.0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [ ( "mdp actions",
        [ Alcotest.test_case "initial actions" `Quick test_initial_actions;
          Alcotest.test_case "sigma R when unmeasured" `Quick test_sigma_r_offered_when_unmeasured;
          Alcotest.test_case "execute after plan" `Quick test_execute_available_after_plan;
          Alcotest.test_case "no duplicate plans" `Quick test_no_duplicate_plans;
          Alcotest.test_case "plan edit rejects execute" `Quick test_plan_edit_rejects_execute;
          Alcotest.test_case "executed masks" `Quick test_executed_masks;
          Alcotest.test_case "state key" `Quick test_state_key_distinguishes;
          Alcotest.test_case "state key same-value overwrite" `Quick
            test_state_key_same_value_overwrite;
          Alcotest.test_case "state key overwrite collision" `Quick
            test_state_key_overwrite_no_collision;
          Alcotest.test_case "terminal" `Quick test_terminal ] );
      ( "simulated transitions",
        [ Alcotest.test_case "sigma costs one scan" `Quick test_sigma_s_costs_one_scan;
          Alcotest.test_case "guess plan expected cost" `Quick test_guess_plan_expected_cost;
          Alcotest.test_case "full guess plan" `Quick test_full_guess_plan_expected_cost;
          Alcotest.test_case "execute updates state" `Quick test_execute_transition_updates_state;
          Alcotest.test_case "plan edits deterministic" `Quick test_plan_edits_are_deterministic_steps;
          Alcotest.test_case "post-observation certainty" `Quick test_post_observation_certainty ] );
      ( "policy",
        [ Alcotest.test_case "MCTS collects statistics first" `Slow test_mcts_collects_statistics_first ] );
      ( "driver",
        [ Alcotest.test_case "end to end" `Quick test_driver_end_to_end;
          Alcotest.test_case "timeout" `Quick test_driver_times_out_on_tiny_budget ] );
      ("properties", qc [ prop_simulated_reward_never_positive ]) ]
