open Monsoon_util
open Monsoon_mcts

(* --- Tiny known MDPs --- *)

(* A one-shot choice: action i yields reward rewards.(i), then terminal. *)
let bandit rewards =
  { Mcts.actions = (fun s -> if s = -1 then [] else List.init (Array.length rewards) Fun.id);
    step = (fun _ a -> (-1, rewards.(a), true));
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
        | 0, 0 -> (1, 5.0, true)
        | 0, 1 -> (2, 0.0, true)
        | 1, _ -> (3, -100.0, true)
        | 2, _ -> (3, 10.0, true)
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
        if a = 0 then (-1, (if Rng.bool rng then 10.0 else -10.0), false)
        else (-1, 1.0, true));
    is_terminal = (fun s -> s = -1);
    key = string_of_int;
    rollout_policy = None }

(* A short stochastic walk with transpositions. From (depth, pos), action 0
   moves on to (depth + 1, pos) at cost 1; action 1 rolls a three-sided die
   and moves to (depth + 1, pos - 1 .. pos + 1) for free; action 2, legal
   while pos > 0, cashes in 2 * pos and ends. Reaching depth 4 pays pos and
   ends. Rolls keep landing on the same few states, so chance children are
   shared. [rng] is the planner's own stream, as in the Monsoon simulator. *)
let dice ?policy rng =
  let arrive (d, pos) r deterministic =
    ((d, pos), (if d = 4 then r +. float_of_int pos else r), deterministic)
  in
  { Mcts.actions =
      (fun (d, pos) ->
        if d < 0 || d >= 4 then [] else if pos > 0 then [ 0; 1; 2 ] else [ 0; 1 ]);
    step =
      (fun (d, pos) a ->
        match a with
        | 0 -> arrive (d + 1, pos) (-1.0) true
        | 1 -> arrive (d + 1, pos + Rng.int rng 3 - 1) 0.0 false
        | _ -> ((-1, pos), 2.0 *. float_of_int pos, true));
    is_terminal = (fun (d, _) -> d < 0 || d >= 4);
    key = (fun (d, pos) -> Printf.sprintf "%d/%d" d pos);
    rollout_policy = policy }

(* The Monsoon rollout shape: cash in half the time when cashing in is
   legal (pos > 0), else leave the uniform choice to the planner. *)
let cash_in_half rng (_, pos) () = if pos > 0 && Rng.bool rng then Some 2 else None

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
        if a = 1 then ((-1), 1.0, true)
        else if s = len - 1 then (len, 10.0, true)
        else (s + 1, 0.0, true));
    is_terminal = (fun s -> s >= len || s < 0);
    key = string_of_int;
    rollout_policy = None }

let test_chain_long_horizon () =
  match plan_with ~iterations:8000 chain 0 with
  | Some (a, _) -> Alcotest.(check int) "keeps walking" 0 a
  | None -> Alcotest.fail "no action"

(* A deadline that expires mid-search (here on the walk's 100th step) ends
   it early; the iterations counter and the span attribute count the
   iterations that ran, which is the root's visit count, not the
   configured 1000. *)
let test_deadline_counts_run_iterations () =
  let open Monsoon_telemetry in
  let dl = Deadline.after 3600.0 in
  let rng = Rng.create 3 in
  let walk = dice rng in
  let steps = ref 0 in
  let problem =
    { walk with
      Mcts.step =
        (fun s a ->
          incr steps;
          if !steps = 100 then Deadline.cancel dl;
          walk.Mcts.step s a) }
  in
  let buf = Span.memory_buffer () in
  let tel = Ctx.create ~sink:(Span.Memory buf) () in
  let cfg = { (Mcts.default_config ~rng) with Mcts.iterations = 1000; deadline = dl } in
  match Mcts.plan ~env:(Ctx.to_env tel) cfg problem (0, 1) with
  | None -> Alcotest.fail "no action"
  | Some (_, st) ->
    Ctx.flush tel;
    let ran = st.Mcts.root_visits in
    Alcotest.(check bool) "ended early" true (ran > 0 && ran < 1000);
    Alcotest.(check int) "counter" ran
      (int_of_float (Metric.Counter.value (Ctx.counter tel "mcts.iterations")));
    let attr =
      List.find_map
        (fun (sp : Span.t) ->
          if sp.Span.name = "mcts.plan" then List.assoc_opt "iterations" sp.Span.attrs
          else None)
        (Span.buffer_spans buf)
    in
    Alcotest.(check bool) "span attribute" true (attr = Some (Span.Int ran))

(* --- The reference search --- *)

(* The straightforward search the library's must agree with: every edge
   keeps its own child table and is stepped on every descent, every node
   lists its actions when it is made, and rollouts list the actions before
   asking the policy. The library skips the work whose result it already
   knows (deterministic edges keep their child, nodes list on first visit,
   the policy's pre-choice comes before listing); none of that may change
   a candidate, a count or a draw. *)
module Ref = struct
  type ('s, 'a) node = {
    state : 's;
    mutable untried : 'a list;
    mutable edges : ('s, 'a) edge list;
    mutable visits : int;
  }

  and ('s, 'a) edge = {
    action : 'a;
    mutable e_visits : int;
    mutable e_total : float;
    children : (string, ('s, 'a) node) Hashtbl.t;
  }

  let make_node (p : _ Mcts.problem) state =
    { state; untried = p.Mcts.actions state; edges = []; visits = 0 }

  let edge_mean e = if e.e_visits = 0 then 0.0 else e.e_total /. float_of_int e.e_visits

  let rollout (cfg : Mcts.config) (p : _ Mcts.problem) state =
    let uniform acts = List.nth acts (Rng.int cfg.Mcts.rng (List.length acts)) in
    let pick state acts =
      match p.Mcts.rollout_policy with
      | None -> uniform acts
      | Some policy -> (
        match policy cfg.Mcts.rng state () with Some a -> a | None -> uniform acts)
    in
    let rec go state steps acc =
      if p.Mcts.is_terminal state || steps >= cfg.Mcts.max_rollout_steps then acc
      else
        match p.Mcts.actions state with
        | [] -> acc
        | acts ->
          let state', r, _ = p.Mcts.step state (pick state acts) in
          go state' (steps + 1) (acc +. r)
    in
    go state 0 0.0

  let select_uct w ~norm node =
    let log_vp = log (float_of_int (max 1 node.visits)) in
    let score e =
      if e.e_visits = 0 then infinity
      else norm (edge_mean e) +. (w *. sqrt (log_vp /. float_of_int e.e_visits))
    in
    let rec best e se = function
      | [] -> e
      | e' :: rest ->
        let se' = score e' in
        if se' > se then best e' se' rest else best e se rest
    in
    match node.edges with e :: rest -> best e (score e) rest | [] -> assert false

  let select_eps (cfg : Mcts.config) ~progress node =
    let eps = Float.max 0.1 (1.0 -. progress) in
    if Rng.unit_float cfg.Mcts.rng < eps then
      List.nth node.edges (Rng.int cfg.Mcts.rng (List.length node.edges))
    else
      List.fold_left
        (fun best e -> if edge_mean e > edge_mean best then e else best)
        (List.hd node.edges) node.edges

  (* The root edges in expansion order and the expansion and
     transposition counts. *)
  let search (cfg : Mcts.config) p root_state =
    let root = make_node p root_state in
    let expansions = ref 0 and transpositions = ref 0 in
    let gmin = ref infinity and gmax = ref neg_infinity in
    let norm v =
      if !gmax -. !gmin < 1e-12 then 0.5 else (v -. !gmin) /. (!gmax -. !gmin)
    in
    let child_of edge state' =
      let k = p.Mcts.key state' in
      match Hashtbl.find_opt edge.children k with
      | Some n ->
        incr transpositions;
        n
      | None ->
        let n = make_node p state' in
        Hashtbl.replace edge.children k n;
        n
    in
    let backup node edge g =
      node.visits <- node.visits + 1;
      edge.e_visits <- edge.e_visits + 1;
      edge.e_total <- edge.e_total +. g
    in
    let rec simulate ~progress node depth =
      if p.Mcts.is_terminal node.state || depth >= cfg.Mcts.max_rollout_steps then 0.0
      else
        match node.untried with
        | a :: rest ->
          node.untried <- rest;
          incr expansions;
          let edge = { action = a; e_visits = 0; e_total = 0.0; children = Hashtbl.create 4 } in
          node.edges <- node.edges @ [ edge ];
          let state', r, _ = p.Mcts.step node.state a in
          ignore (child_of edge state');
          let g = r +. rollout cfg p state' in
          backup node edge g;
          g
        | [] ->
          if node.edges = [] then 0.0
          else begin
            let edge =
              match cfg.Mcts.selection with
              | Mcts.Uct w -> select_uct w ~norm node
              | Mcts.Epsilon_greedy -> select_eps cfg ~progress node
            in
            let state', r, _ = p.Mcts.step node.state edge.action in
            let g = r +. simulate ~progress (child_of edge state') (depth + 1) in
            backup node edge g;
            g
          end
    in
    for i = 0 to cfg.Mcts.iterations - 1 do
      let progress = float_of_int i /. float_of_int (max 1 cfg.Mcts.iterations) in
      let g = simulate ~progress root 0 in
      if g < !gmin then gmin := g;
      if g > !gmax then gmax := g
    done;
    (root.edges, !expansions, !transpositions)
end

(* One search's root candidates (action, visits, mean bits), its counts
   and the next draw of the planner's stream: the reference's, or the
   library's read from its counters. *)
let search_digest ~reference ~problem ?selection ~iterations seed root =
  let rng = Rng.create seed in
  let cfg =
    { (Mcts.default_config ~rng) with
      Mcts.iterations;
      selection = Option.value selection ~default:(Mcts.Uct (sqrt 2.0)) }
  in
  let p = problem rng in
  let candidates, expansions, transpositions =
    if reference then
      let edges, e, t = Ref.search cfg p root in
      (List.map (fun (e : _ Ref.edge) -> (e.Ref.action, e.Ref.e_visits, Ref.edge_mean e)) edges, e, t)
    else begin
      let tel = Monsoon_telemetry.Ctx.null () in
      let counter n =
        int_of_float
          (Monsoon_telemetry.Metric.Counter.value (Monsoon_telemetry.Ctx.counter tel n))
      in
      let cands =
        match Mcts.plan ~env:(Monsoon_telemetry.Ctx.to_env tel) cfg p root with
        | None -> []
        | Some (_, st) ->
          List.map (fun c -> (c.Mcts.cand_action, c.Mcts.cand_visits, c.Mcts.cand_mean))
            st.Mcts.candidates
      in
      (cands, counter "mcts.expansions", counter "mcts.transpositions")
    end
  in
  Printf.sprintf "expansions=%d transpositions=%d next=%Lx" expansions transpositions
    (Rng.bits64 rng)
  :: List.map
       (fun (a, v, m) -> Printf.sprintf "%d v=%d m=%Lx" a v (Int64.bits_of_float m))
       candidates

(* The dice walk's root statistics, pinned. *)
let test_dice_pinned () =
  let digest ?policy ?selection seed =
    search_digest ~reference:false
      ~problem:(fun rng -> dice ?policy rng)
      ?selection ~iterations:300 seed (0, 1)
  in
  let got =
    digest 11 @ digest ~policy:cash_in_half 12
    @ digest ~selection:Mcts.Epsilon_greedy ~policy:cash_in_half 13
  in
  Alcotest.(check (list string)) "root statistics"
    [ "expansions=65 transpositions=406 next=f1c4b8fbf726978c";
      "0 v=42 m=3fb2492492492492";
      "1 v=69 m=3feb5cc0ed7303b6";
      "2 v=189 m=4000000000000000";
      "expansions=83 transpositions=452 next=8fc323b850f5c2be";
      "0 v=57 m=3fd79435e50d7943";
      "1 v=83 m=3ff12818acb90f6c";
      "2 v=160 m=4000000000000000";
      "expansions=55 transpositions=383 next=2c940aa238224d13";
      "0 v=52 m=3fd89d89d89d89d9";
      "1 v=44 m=3fe8000000000000";
      "2 v=204 m=4000000000000000" ]
    got

(* Toy problems that mix deterministic and stochastic steps, with and
   without a pre-choice; the library must reproduce the reference. *)
let prop_matches_reference =
  (* The same walk with every step reported stochastic. *)
  let all_sampled p =
    { p with
      Mcts.step =
        (fun s a ->
          let s', r, _ = p.Mcts.step s a in
          (s', r, false)) }
  in
  let problems =
    [| ("dice", (fun rng -> dice rng), (0, 1));
       ("dice, cash-in pre-choice", (fun rng -> dice ~policy:cash_in_half rng), (0, 1));
       ("dice from 0, cash-in pre-choice", (fun rng -> dice ~policy:cash_in_half rng), (0, 0));
       ("dice, all sampled", (fun rng -> all_sampled (dice ~policy:cash_in_half rng)), (0, 1)) |]
  in
  QCheck.Test.make ~name:"search matches the reference search" ~count:60
    QCheck.(triple (int_bound 3) (int_range 1 400) (int_bound 1_000_000))
    (fun (i, iterations, seed) ->
      let name, problem, root = problems.(i) in
      List.for_all
        (fun selection ->
          let digest reference =
            search_digest ~reference ~problem ~selection ~iterations seed root
          in
          let lib = digest false and reference = digest true in
          lib = reference
          || QCheck.Test.fail_reportf "%s, %d iterations, seed %d:\n  lib %s\n  ref %s"
               name iterations seed (String.concat "; " lib)
               (String.concat "; " reference))
        [ Mcts.Uct (sqrt 2.0); Mcts.Epsilon_greedy ])

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
          Alcotest.test_case "long horizon chain" `Quick test_chain_long_horizon;
          Alcotest.test_case "dice walk pinned" `Quick test_dice_pinned;
          Alcotest.test_case "deadline counts iterations run" `Quick
            test_deadline_counts_run_iterations ] );
      ( "root children",
        [ Alcotest.test_case "expansion order" `Quick test_candidates_in_expansion_order;
          Alcotest.test_case "visits sum to root" `Quick test_candidate_visits_sum_to_root;
          Alcotest.test_case "raw means" `Quick test_candidate_means_are_raw;
          Alcotest.test_case "chosen matches candidate" `Quick test_chosen_matches_candidate ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bandit_always_optimal; prop_matches_reference ] ) ]
