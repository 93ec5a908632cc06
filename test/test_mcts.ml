open Monsoon_util
open Monsoon_mcts

(* --- Tiny known MDPs --- *)

(* A one-shot choice: action i yields reward rewards.(i), then terminal. *)
let bandit rewards =
  { Mcts.actions = (fun s -> if s = -1 then [] else List.init (Array.length rewards) Fun.id);
    step = (fun _ a -> (-1, rewards.(a)));
    is_terminal = (fun s -> s = -1);
    key = string_of_int;
    rollout_policy = None }

(* A trap MDP: from the start, action 0 gives +5 now but forces a -100
   follow-up; action 1 gives 0 now and +10 later. Greedy-on-immediate picks
   the trap; a planner must look ahead. States: 0 start, 1 trap, 2 good,
   3 terminal. *)
let trap =
  { Mcts.actions =
      (fun s -> match s with 0 -> [ 0; 1 ] | 1 | 2 -> [ 0 ] | _ -> []);
    step =
      (fun s a ->
        match (s, a) with
        | 0, 0 -> (1, 5.0)
        | 0, 1 -> (2, 0.0)
        | 1, _ -> (3, -100.0)
        | 2, _ -> (3, 10.0)
        | _ -> assert false);
    is_terminal = (fun s -> s = 3);
    key = string_of_int;
    rollout_policy = None }

(* A stochastic MDP: action 0 is a fair gamble (±10), action 1 is a sure
   +1. Expected values 0 vs 1: the planner should prefer the sure thing. *)
let gamble rng =
  { Mcts.actions = (fun s -> if s = -1 then [] else [ 0; 1 ]);
    step =
      (fun _ a ->
        if a = 0 then (-1, if Rng.bool rng then 10.0 else -10.0)
        else (-1, 1.0));
    is_terminal = (fun s -> s = -1);
    key = string_of_int;
    rollout_policy = None }

let plan_with ?(iterations = 4000) ?selection problem state =
  let rng = Rng.create 7 in
  let cfg = Mcts.default_config ~rng in
  let cfg =
    { cfg with
      Mcts.iterations;
      selection = Option.value selection ~default:cfg.Mcts.selection }
  in
  Mcts.plan cfg problem state

let test_bandit_picks_best () =
  match plan_with (bandit [| 1.0; 5.0; 3.0 |]) 0 with
  | Some (a, _) -> Alcotest.(check int) "best arm" 1 a
  | None -> Alcotest.fail "no action"

let test_bandit_negative_costs () =
  (* All rewards negative (as in Monsoon): still picks the least bad. *)
  match plan_with (bandit [| -10.0; -2.0; -7.0 |]) 0 with
  | Some (a, _) -> Alcotest.(check int) "least cost" 1 a
  | None -> Alcotest.fail "no action"

let test_trap_avoided_uct () =
  match plan_with trap 0 with
  | Some (a, _) -> Alcotest.(check int) "avoids trap" 1 a
  | None -> Alcotest.fail "no action"

let test_trap_avoided_eps_greedy () =
  match plan_with ~selection:Mcts.Epsilon_greedy trap 0 with
  | Some (a, _) -> Alcotest.(check int) "avoids trap" 1 a
  | None -> Alcotest.fail "no action"

let test_gamble_prefers_sure_thing () =
  let rng = Rng.create 99 in
  match plan_with ~iterations:8000 (gamble rng) 0 with
  | Some (a, _) -> Alcotest.(check int) "sure +1" 1 a
  | None -> Alcotest.fail "no action"

let test_terminal_returns_none () =
  Alcotest.(check bool) "terminal" true (plan_with trap 3 = None)

let test_stats_populated () =
  match plan_with ~iterations:1000 trap 0 with
  | Some (_, st) ->
    Alcotest.(check bool) "visits counted" true (st.Mcts.chosen_visits > 0);
    Alcotest.(check int) "root visits = iterations" 1000 st.Mcts.root_visits
  | None -> Alcotest.fail "no action"

let test_deterministic_given_seed () =
  let run () =
    match plan_with (bandit [| 1.0; 5.0; 3.0 |]) 0 with
    | Some (a, st) -> (a, st.Mcts.chosen_visits)
    | None -> assert false
  in
  Alcotest.(check (pair int int)) "reproducible" (run ()) (run ())

(* A longer chain: rewards only at the end, testing credit assignment over
   depth. Moving right along a 6-state chain yields +10 at the end; bailing
   out yields +1 immediately. *)
let chain =
  let len = 6 in
  { Mcts.actions = (fun s -> if s >= len || s < 0 then [] else [ 0; 1 ]);
    step =
      (fun s a ->
        if a = 1 then ((-1), 1.0)
        else if s = len - 1 then (len, 10.0)
        else (s + 1, 0.0));
    is_terminal = (fun s -> s >= len || s < 0);
    key = string_of_int;
    rollout_policy = None }

let test_chain_long_horizon () =
  match plan_with ~iterations:8000 chain 0 with
  | Some (a, _) -> Alcotest.(check int) "keeps walking" 0 a
  | None -> Alcotest.fail "no action"

(* Root-child statistics, as reported in [stats.candidates]. *)
let root_candidates () =
  match plan_with ~iterations:500 (bandit [| 1.0; 5.0; 3.0 |]) 0 with
  | Some (a, st) -> (a, st)
  | None -> Alcotest.fail "no action"

let test_candidates_in_expansion_order () =
  let _, st = root_candidates () in
  Alcotest.(check (list int)) "one per legal action" [ 0; 1; 2 ]
    (List.map (fun c -> c.Mcts.cand_action) st.Mcts.candidates)

let test_candidate_visits_sum_to_root () =
  let _, st = root_candidates () in
  let total = List.fold_left (fun acc c -> acc + c.Mcts.cand_visits) 0 st.Mcts.candidates in
  Alcotest.(check int) "sum of edge visits" st.Mcts.root_visits total;
  Alcotest.(check int) "root visits = iterations" 500 st.Mcts.root_visits

let test_candidate_means_are_raw () =
  (* A deterministic bandit: each edge's mean is exactly its arm's reward,
     whatever the min-max normalization used during selection. *)
  let _, st = root_candidates () in
  Alcotest.(check (list (float 1e-9))) "raw means" [ 1.0; 5.0; 3.0 ]
    (List.map (fun c -> c.Mcts.cand_mean) st.Mcts.candidates)

let test_chosen_matches_candidate () =
  let a, st = root_candidates () in
  match List.find_opt (fun c -> c.Mcts.cand_action = a) st.Mcts.candidates with
  | None -> Alcotest.fail "chosen action missing from candidates"
  | Some c ->
    Alcotest.(check int) "visits" st.Mcts.chosen_visits c.Mcts.cand_visits;
    Alcotest.(check (float 1e-9)) "mean" st.Mcts.chosen_mean c.Mcts.cand_mean;
    List.iter
      (fun o -> Alcotest.(check bool) "best mean" true (o.Mcts.cand_mean <= c.Mcts.cand_mean))
      st.Mcts.candidates

let prop_bandit_always_optimal =
  QCheck.Test.make ~name:"bandit solved for random reward vectors" ~count:25
    QCheck.(array_of_size (QCheck.Gen.int_range 2 6) (float_range (-100.0) 100.0))
    (fun rewards ->
      QCheck.assume (Array.length rewards >= 2);
      (* Make the best arm unique and clearly separated. *)
      let best = ref 0 in
      Array.iteri (fun i v -> if v > rewards.(!best) then best := i) rewards;
      rewards.(!best) <- rewards.(!best) +. 50.0;
      match plan_with ~iterations:2000 (bandit rewards) 0 with
      | Some (a, _) -> a = !best
      | None -> false)

let () =
  Alcotest.run "mcts"
    [ ( "planning",
        [ Alcotest.test_case "bandit best arm" `Quick test_bandit_picks_best;
          Alcotest.test_case "bandit negative" `Quick test_bandit_negative_costs;
          Alcotest.test_case "trap avoided (UCT)" `Quick test_trap_avoided_uct;
          Alcotest.test_case "trap avoided (eps)" `Quick test_trap_avoided_eps_greedy;
          Alcotest.test_case "gamble" `Quick test_gamble_prefers_sure_thing;
          Alcotest.test_case "terminal none" `Quick test_terminal_returns_none;
          Alcotest.test_case "stats populated" `Quick test_stats_populated;
          Alcotest.test_case "deterministic" `Quick test_deterministic_given_seed;
          Alcotest.test_case "long horizon chain" `Quick test_chain_long_horizon ] );
      ( "root children",
        [ Alcotest.test_case "expansion order" `Quick test_candidates_in_expansion_order;
          Alcotest.test_case "visits sum to root" `Quick test_candidate_visits_sum_to_root;
          Alcotest.test_case "raw means" `Quick test_candidate_means_are_raw;
          Alcotest.test_case "chosen matches candidate" `Quick test_chosen_matches_candidate ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_bandit_always_optimal ]) ]
