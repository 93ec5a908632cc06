(* Deeper invariants of the Monsoon MDP and driver: termination of random
   walks, monotone growth of knowledge, budget conservation, and the
   duplicate-mask regression (a plan whose result already exists must never
   be offered, and executed masks must always carry result counts). *)

open Monsoon_util
open Monsoon_relalg
open Monsoon_stats
open Monsoon_core
open Monsoon_workloads

let tpch_ctx seed =
  let w = Tpch.workload { Tpch.seed; scale = 0.05; skew = Tpch.Plain } in
  let q = Workload.find_query w "tq6" in
  (* 7 instances *)
  (w, q, Mdp.make_ctx w.Workload.catalog q)

(* Walk the simulated MDP with random legal actions; check invariants at
   every step. *)
let random_walk ~seed ~prior ~steps =
  let _, q, ctx = tpch_ctx 3 in
  let sim = Simulator.create ctx prior (Rng.create seed) in
  let rng = Rng.create (seed * 7) in
  let violations = ref [] in
  let check state =
    (* Every non-singleton mask in R_e must have a result count. *)
    List.iter
      (fun m ->
        if Relset.cardinal m > 1 && Stats_catalog.count state.Mdp.stats m = None
        then violations := Printf.sprintf "mask %d lacks a count" m :: !violations)
      state.Mdp.r_e;
    (* Every plan leaf must reference a materialized mask. *)
    List.iter
      (fun e ->
        List.iter
          (fun leaf ->
            if not (List.mem leaf state.Mdp.r_e) then
              violations :=
                Printf.sprintf "plan leaf %d not in R_e" leaf :: !violations)
          (Expr.leaves e))
      state.Mdp.r_p
  in
  let episodes = ref 0 in
  let state = ref (Mdp.init_state ctx) in
  for _ = 1 to steps do
    if Mdp.is_terminal ctx !state then begin
      incr episodes;
      state := Mdp.init_state ctx
    end
    else begin
      let acts = Mdp.legal_actions ctx !state in
      if acts = [] then
        violations := "non-terminal state with no actions" :: !violations
      else begin
        let a = List.nth acts (Rng.int rng (List.length acts)) in
        let s', reward = Simulator.step sim !state a in
        if reward > 0.0 then violations := "positive reward" :: !violations;
        check s';
        state := s'
      end
    end
  done;
  (!violations, !episodes, Query.n_rels q)

let test_random_walk_invariants () =
  let violations, episodes, _ =
    random_walk ~seed:11 ~prior:Prior.spike_and_slab ~steps:3000
  in
  Alcotest.(check (list string)) "no violations" [] violations;
  Alcotest.(check bool) "terminates repeatedly" true (episodes > 3)

let test_random_walk_all_priors () =
  List.iter
    (fun prior ->
      let violations, _, _ = random_walk ~seed:5 ~prior ~steps:800 in
      Alcotest.(check (list string)) (Prior.name prior ^ " clean") [] violations)
    Prior.all

(* The regression: two overlapping plans in R_p used to leave phantom masks
   in R_e without counts. Construct the exact shape and check legality now
   prevents the duplicate plan. *)
let test_duplicate_mask_plan_suppressed () =
  let _, _, ctx = tpch_ctx 3 in
  let s0 = Mdp.init_state ctx in
  (* Plan A = 0 ⨝ 1 (if connected); then try to create a second plan with
     the same mask through a different route. *)
  let acts = Mdp.legal_actions ctx s0 in
  let join_act =
    List.find_map
      (function Mdp.Join_exec (a, b) -> Some (a, b) | _ -> None)
      acts
  in
  match join_act with
  | None -> Alcotest.fail "no join action at init"
  | Some (a, b) ->
    let s1 = Mdp.apply_plan_edit s0 (Mdp.Join_exec (a, b)) in
    let acts1 = Mdp.legal_actions ctx s1 in
    Alcotest.(check bool) "identical join not offered again" false
      (List.mem (Mdp.Join_exec (a, b)) acts1);
    (* No Join_mixed may produce a mask equal to an existing plan's mask. *)
    List.iter
      (function
        | Mdp.Join_mixed (m, e) ->
          let union = Relset.union m (Expr.mask e) in
          Alcotest.(check bool) "mixed join does not duplicate" false
            (List.exists
               (fun e' ->
                 (not (Expr.equal e e')) && Relset.equal (Expr.mask e') union)
               s1.Mdp.r_p)
        | _ -> ())
      acts1

(* Driver end-to-end across several seeds: knowledge grows, budget is
   respected, final result matches ground truth. *)
let test_driver_many_seeds () =
  let w = Tpch.workload { Tpch.seed = 7; scale = 0.03; skew = Tpch.Plain } in
  let q = Workload.find_query w "tq1" in
  (* Ground truth once, via the full-statistics baseline. *)
  let pg =
    Monsoon_baselines.Strategy.postgres.Monsoon_baselines.Strategy.run
      ~rng:(Rng.create 1) ~budget:1e9 w.Workload.catalog q
  in
  List.iter
    (fun seed ->
      let config =
        { (Driver.default_config ~rng:(Rng.create seed)) with
          Driver.budget = 1e8;
          mcts =
            { (Monsoon_mcts.Mcts.default_config ~rng:(Rng.create seed)) with
              Monsoon_mcts.Mcts.iterations = 150 } }
      in
      let out = Driver.run config w.Workload.catalog q in
      Alcotest.(check bool) "completes" false out.Driver.timed_out;
      Alcotest.(check (float 0.5))
        (Printf.sprintf "seed %d correct result" seed)
        pg.Monsoon_baselines.Strategy.result_card out.Driver.result_card)
    [ 1; 2; 3; 4; 5 ]

(* Σ decisions must pay off on the paper's Sec 2.3 setup — d(F1,R) and
   d(F3,R) known, two-point uncertainty on d(F2,S) and d(F4,T): over the
   four scenarios, Monsoon's total cost must beat the worst fixed plan's
   total. *)
let test_multi_step_beats_worst_fixed_plan () =
  let q = Fixtures.sec23_query () in
  let two_point =
    Prior.custom ~name:"two-point"
      ~sample:(fun rng ~c_own ~c_partner:_ ->
        if Rng.bool rng then 1.0 else Float.min 50.0 c_own)
      ()
  in
  let point v = Prior.custom ~name:"pt" ~sample:(fun _ ~c_own:_ ~c_partner:_ -> v) () in
  let totals = ref (0.0, 0.0, 0.0) in
  List.iter
    (fun (d_s, d_t) ->
      let rng = Rng.create (d_s + (97 * d_t)) in
      let cat = Fixtures.sec23_catalog rng ~scale:200 ~d_s ~d_t in
      let config =
        { (Driver.default_config ~rng:(Rng.create 4)) with
          Driver.budget = 1e9;
          known_distincts = [ (0, 5.0); (2, 5.0) ];
          prior_of =
            Some (function 1 | 3 -> two_point | _ -> point 5.0);
          mcts =
            { (Monsoon_mcts.Mcts.default_config ~rng:(Rng.create 4)) with
              Monsoon_mcts.Mcts.iterations = 2000 } }
      in
      let monsoon = (Driver.run config cat q).Driver.cost in
      let fixed plan =
        let exec = Monsoon_exec.Executor.create cat q (Monsoon_exec.Executor.budget 1e9) in
        Monsoon_exec.Executor.execute exec plan
      in
      let rs_t = fixed (Expr.join (Expr.join (Expr.base 0) (Expr.base 1)) (Expr.base 2)) in
      let rt_s = fixed (Expr.join (Expr.join (Expr.base 0) (Expr.base 2)) (Expr.base 1)) in
      let m, a, b = !totals in
      totals := (m +. monsoon, a +. rs_t, b +. rt_s))
    [ (1, 1); (1, 50); (50, 1); (50, 50) ];
  let monsoon_total, rs_t_total, rt_s_total = !totals in
  Alcotest.(check bool) "beats the worst fixed order" true
    (monsoon_total < Float.max rs_t_total rt_s_total)

let () =
  Alcotest.run "driver-invariants"
    [ ( "mdp walks",
        [ Alcotest.test_case "invariants hold" `Quick test_random_walk_invariants;
          Alcotest.test_case "all priors" `Quick test_random_walk_all_priors;
          Alcotest.test_case "duplicate masks suppressed" `Quick test_duplicate_mask_plan_suppressed ] );
      ( "driver",
        [ Alcotest.test_case "many seeds" `Quick test_driver_many_seeds;
          Alcotest.test_case "multi-step beats worst fixed" `Slow test_multi_step_beats_worst_fixed_plan ] ) ]
