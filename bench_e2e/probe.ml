(* The planner probe: for each query, rebuild [Driver.run]'s first
   planning call exactly — the one RNG shared by [Simulator.create] and
   [Mcts.default_config], the same size-scaled iteration count, the same
   [Mdp.init_state] — and run it twice: once as is, once with every
   [Simulator.problem] closure timed. Timing only reads the clock, so both
   runs draw the same random numbers and must pick the action the real run
   picked first; [probe.first_action_match] checks that. *)

open Monsoon_util
open Monsoon_core
module Mcts = Monsoon_mcts.Mcts

(* All-float, so the updates on the timed path do not allocate. *)
type closure = { mutable calls : float; mutable seconds : float }

type t = {
  legal_actions : closure;
  step_edit : closure;
  step_execute : closure;
  state_key : closure;
  is_terminal : closure;
  rollout_policy : closure;
  mutable plain_s : float;  (** first plans, unwrapped *)
  mutable wrapped_s : float;  (** the same plans, closures timed *)
  mutable queries : int;
  mutable matched : int;
}

let closure () = { calls = 0.0; seconds = 0.0 }

let create () =
  { legal_actions = closure ();
    step_edit = closure ();
    step_execute = closure ();
    state_key = closure ();
    is_terminal = closure ();
    rollout_policy = closure ();
    plain_s = 0.0;
    wrapped_s = 0.0;
    queries = 0;
    matched = 0 }

let timed c f x =
  let t0 = Timer.now () in
  let r = f x in
  c.seconds <- c.seconds +. (Timer.now () -. t0);
  c.calls <- c.calls +. 1.0;
  r

let wrap t (p : (Mdp.state, Mdp.action) Mcts.problem) =
  { Mcts.actions = timed t.legal_actions p.Mcts.actions;
    step =
      (fun s a ->
        let c = match a with Mdp.Execute -> t.step_execute | _ -> t.step_edit in
        timed c (p.Mcts.step s) a);
    is_terminal = timed t.is_terminal p.Mcts.is_terminal;
    key = timed t.state_key p.Mcts.key;
    rollout_policy =
      Option.map (fun f rng s -> timed t.rollout_policy (f rng s)) p.Mcts.rollout_policy }

(* [Strategy.monsoon]'s effort scaling for 6- and 7-instance queries. *)
let scaled_iterations iterations query =
  let n = Monsoon_relalg.Query.n_rels query in
  if n >= 7 then iterations * 3 else if n >= 6 then iterations * 2 else iterations

let first_plan ~wrap_problem ~iterations ~rng catalog query =
  let mcts =
    { (Mcts.default_config ~rng) with
      Mcts.iterations = scaled_iterations iterations query }
  in
  let ctx = Mdp.make_ctx catalog query in
  let sim = Simulator.create ctx Monsoon_stats.Prior.spike_and_slab rng in
  let problem = wrap_problem (Simulator.problem sim) in
  let planned, dt =
    Timer.time (fun () -> Mcts.plan mcts problem (Mdp.init_state ctx))
  in
  (Option.map (fun (a, _) -> Mdp.describe_action ctx a) planned, dt)

(* [driver_plan] is the real run's action trace ([Strategy.outcome.plan],
   actions joined by " | "). [rng] makes a fresh copy of the request's
   stream for each of the two plans. Which of the two runs first alternates
   between queries, so warming caches favours neither. *)
let run t ~iterations ~rng ~driver_plan catalog query =
  let plan wrap_problem = first_plan ~wrap_problem ~iterations ~rng:(rng ()) catalog query in
  let (plain, dt_plain), (wrapped, dt_wrapped) =
    if t.queries mod 2 = 0 then
      let p = plan Fun.id in
      (p, plan (wrap t))
    else
      let w = plan (wrap t) in
      (plan Fun.id, w)
  in
  t.plain_s <- t.plain_s +. dt_plain;
  t.wrapped_s <- t.wrapped_s +. dt_wrapped;
  t.queries <- t.queries + 1;
  let first_of_driver a =
    driver_plan = a || String.starts_with ~prefix:(a ^ " | ") driver_plan
  in
  match (plain, wrapped) with
  | Some a, Some b when a = b && first_of_driver a -> t.matched <- t.matched + 1
  | _ -> ()

let metrics t =
  let per_query x = Metrics.ratio x (float_of_int t.queries) in
  let ms c = per_query (1000.0 *. c.seconds) in
  let closures =
    [ t.legal_actions; t.step_edit; t.step_execute; t.state_key; t.is_terminal;
      t.rollout_policy ]
  in
  let closure_s = List.fold_left (fun acc c -> acc +. c.seconds) 0.0 closures in
  [ ("mdp.legal_actions_ms_per_query", ms t.legal_actions);
    ("mdp.legal_actions_calls_per_query", per_query t.legal_actions.calls);
    ("simulator.step_edit_ms_per_query", ms t.step_edit);
    ("simulator.step_execute_ms_per_query", ms t.step_execute);
    ("simulator.step_execute_calls_per_query", per_query t.step_execute.calls);
    ("mdp.state_key_ms_per_query", ms t.state_key);
    ("mdp.state_key_calls_per_query", per_query t.state_key.calls);
    ("mdp.is_terminal_ms_per_query", ms t.is_terminal);
    ("simulator.rollout_policy_ms_per_query", ms t.rollout_policy);
    ("mcts.tree_self_ms_per_query", per_query (1000.0 *. (t.wrapped_s -. closure_s)));
    ("probe.overhead_share", Metrics.ratio t.wrapped_s t.plain_s -. 1.0);
    ("probe.first_action_match", per_query (float_of_int t.matched)) ]
