open Monsoon_util
open Monsoon_relalg
open Monsoon_stats

type t = { ctx : Mdp.ctx; prior_of : int -> Prior.t; rng : Rng.t }

let create_with ctx ~prior_of rng = { ctx; prior_of; rng }
let create ctx prior rng = create_with ctx ~prior_of:(fun _ -> prior) rng

(* Cost-model environment over a private statistics copy: lookups hit S
   first; missing distinct counts are sampled from the prior and memoized
   (scoped to their predicate) so one EXECUTE transition is internally
   consistent. *)
let env_over t stats =
  { Cost_model.count_of = (fun mask -> Stats_catalog.count stats mask);
    raw_count = (fun i -> t.ctx.Mdp.raw_counts.(i));
    distinct_of =
      (fun ~term ~pred ~c_own ~c_partner ->
        let tid = term.Term.id in
        match Stats_catalog.distinct stats ~term:tid ~pred with
        | Some d -> d
        | None ->
          let d = Prior.sample (t.prior_of tid) t.rng ~c_own ~c_partner in
          let scope =
            match pred with
            | Some p -> Stats_catalog.For_pred p
            | None -> Stats_catalog.For_select
          in
          Stats_catalog.set_distinct stats ~term:tid ~scope d;
          d);
    record_count = (fun mask c -> Stats_catalog.set_count stats mask c) }

(* Cardinality of the natural join partner of a term, used to parameterize
   the prior when a Σ pass hardens a wildcard measurement: the other side of
   the first join predicate the term appears in, approximated by the product
   of its base instances' (filtered) sizes. *)
let partner_card t env tm =
  let q = t.ctx.Mdp.query in
  let partner_term =
    List.find_map
      (fun pid ->
        match Query.pred q pid with
        | Predicate.Join { left; right; _ } ->
          if left.Term.id = tm.Term.id then Some right
          else if right.Term.id = tm.Term.id then Some left
          else None
        | Predicate.Select _ -> None)
      (Query.preds_of_term q tm.Term.id)
  in
  match partner_term with
  | None -> None
  | Some pt ->
    let c =
      List.fold_left
        (fun acc i ->
          acc *. Cost_model.estimate q env (Expr.base i))
        1.0
        (Relset.to_list (Query.term_mask q pt.Term.id))
    in
    Some c

(* Σ-topped plans harden wildcard measurements into [stats], so that
   costing (and all later planning) sees them. Shared between the EXECUTE
   simulation and [predict_counts]. *)
let harden_sigma_into t env stats r_p =
  let q = t.ctx.Mdp.query in
  List.iter
    (fun e ->
      if Expr.has_stats e then begin
        let inner = Expr.strip_stats e in
        let c = Cost_model.estimate q env inner in
        List.iter
          (fun tm ->
            if not (Stats_catalog.has_measurement stats ~term:tm.Term.id) then begin
              let c_partner = partner_card t env tm in
              let d =
                Cost_model.clamp_distinct ~c_own:c
                  (Prior.sample (t.prior_of tm.Term.id) t.rng ~c_own:c ~c_partner)
              in
              Stats_catalog.set_distinct stats ~term:tm.Term.id
                ~scope:Stats_catalog.Wildcard d
            end)
          (Query.interesting_terms q (Expr.mask inner))
      end)
    r_p

let simulate_execute t (state : Mdp.state) =
  let q = t.ctx.Mdp.query in
  let stats = Stats_catalog.copy state.Mdp.stats in
  let env = env_over t stats in
  (* Phase 1: Σ-topped plans harden wildcard measurements, so that costing
     in phase 2 (and all later planning) sees them. *)
  harden_sigma_into t env stats state.Mdp.r_p;
  (* Phase 2: cost every planned expression; estimates are memoized into the
     statistics copy, hardening result counts. *)
  let total =
    List.fold_left (fun acc e -> acc +. Cost_model.cost q env e) 0.0 state.Mdp.r_p
  in
  (Mdp.after_execute state stats, -.total)

(* Mirror of [simulate_execute]'s estimation pass that reports, instead of
   hiding, the sampled cardinalities: every mask whose count the model had
   to compute (i.e. was not already hardened in S) is returned with its
   predicted count. These are the plan-time predictions the flight recorder
   compares against the executor's observations. *)
let predict_counts t (state : Mdp.state) =
  let stats = Stats_catalog.copy state.Mdp.stats in
  let base = env_over t stats in
  let captured = ref [] in
  let env =
    { base with
      Cost_model.record_count =
        (fun mask c ->
          if not (List.mem_assoc mask !captured) then
            captured := (mask, c) :: !captured;
          base.Cost_model.record_count mask c) }
  in
  harden_sigma_into t env stats state.Mdp.r_p;
  List.iter
    (fun e ->
      ignore (Cost_model.estimate t.ctx.Mdp.query env (Expr.strip_stats e)))
    state.Mdp.r_p;
  List.rev !captured

let step t state action =
  match action with
  | Mdp.Execute -> simulate_execute t state
  | Mdp.Add_stats_of_exec _ | Mdp.Wrap_stats _ | Mdp.Join_exec _
  | Mdp.Join_planned _ | Mdp.Join_mixed _ ->
    (Mdp.apply_plan_edit state action, 0.0)

(* Rollout policy: when a plan is pending, execute it half the time instead
   of wandering through more plan edits. This keeps simulations short and
   makes the value of "EXECUTE now" sharply visible; below the bias,
   actions stay uniformly random. EXECUTE is legal exactly when R_p is
   non-empty, so the coin is flipped before any action is listed. *)
let rollout_policy rng (state : Mdp.state) () =
  match state.Mdp.r_p with
  | _ :: _ when Rng.bool rng -> Some Mdp.Execute
  | _ -> None

(* Plan edits are deterministic; only EXECUTE samples the priors. *)
let problem t =
  { Monsoon_mcts.Mcts.actions = (fun s -> Mdp.legal_actions t.ctx s);
    step =
      (fun s a ->
        match a with
        | Mdp.Execute ->
          let s', r = simulate_execute t s in
          (s', r, false)
        | Mdp.Add_stats_of_exec _ | Mdp.Wrap_stats _ | Mdp.Join_exec _
        | Mdp.Join_planned _ | Mdp.Join_mixed _ ->
          (Mdp.apply_plan_edit s a, 0.0, true));
    is_terminal = (fun s -> Mdp.is_terminal t.ctx s);
    key = Mdp.state_key;
    rollout_policy = Some rollout_policy }

let expected_execute_cost t state ~n =
  let acc = ref 0.0 in
  for _ = 1 to n do
    let _, r = simulate_execute t state in
    acc := !acc -. r
  done;
  !acc /. float_of_int n
