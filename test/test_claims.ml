(* The reproduction's headline claims (EXPERIMENTS.md) as quick-profile
   checks. Each test is named after the claim it guards, so a failure
   reads as "this paper claim no longer holds". *)

open Monsoon_harness
open Monsoon_core

let profile = Experiments.quick

let agg rows ~budget name =
  match List.find_opt (fun (r : Runner.row) -> r.Runner.strategy = name) rows with
  | Some r -> Runner.aggregate ~budget r
  | None -> Alcotest.failf "no %s row" name

let test_figure1_sigma_first () =
  match Experiments.figure1_first_action () with
  | Some (Mdp.Add_stats_of_exec _ | Mdp.Wrap_stats _) -> ()
  | Some _ -> Alcotest.fail "MCTS chose a non-Σ action first"
  | None -> Alcotest.fail "MCTS chose no action"

let test_imdb () =
  let rows = Experiments.imdb_suite profile in
  let budget = profile.Experiments.imdb_budget in
  let monsoon = agg rows ~budget "Monsoon" in
  let on_demand = agg rows ~budget "On Demand" in
  Alcotest.(check int) "Monsoon has no timeouts on IMDB" 0
    monsoon.Runner.timeouts;
  Alcotest.(check bool) "On-Demand's median is worse than Monsoon's" true
    (on_demand.Runner.median > monsoon.Runner.median)

let test_warm_beats_cold () =
  let path = Filename.temp_file "monsoon-claims-repo" ".jsonl" in
  let report = Experiments.warmstart ~repo_path:path profile in
  Sys.remove path;
  let verdict = "WARMSTART DOMINANCE: objects=yes replans=yes" in
  let n = String.length verdict in
  let rec found i =
    i + n <= String.length report
    && (String.sub report i n = verdict || found (i + 1))
  in
  Alcotest.(check bool) "warm start needs fewer objects and replans" true
    (found 0)

let test_ott_hand_written () =
  let rows = Experiments.ott_suite profile in
  let hand =
    agg rows ~budget:profile.Experiments.ott_budget "Hand-written"
  in
  Alcotest.(check int) "hand-written plans never time out on OTT" 0
    hand.Runner.timeouts

let () =
  Alcotest.run "claims"
    [ ( "paper claims",
        [ Alcotest.test_case "figure1 sigma first" `Quick
            test_figure1_sigma_first;
          Alcotest.test_case "table3 Monsoon vs On-Demand" `Quick test_imdb;
          Alcotest.test_case "warmstart warm beats cold" `Quick
            test_warm_beats_cold;
          Alcotest.test_case "table6 hand-written no TO" `Quick
            test_ott_hand_written ] ) ]
