(* Characterization of the planner's hot path. Rollouts and ε-greedy
   selection index into the action list with the RNG, so the order of
   [Mdp.legal_actions], the order of R_p and the bytes of [Mdp.state_key]
   all decide which plan MCTS returns. [Ref] is a straightforward
   list-and-string rendering of those three functions (and of the query
   helpers they call) that serves as the oracle: random walks through the
   simulated MDP must see exactly its actions and keys at every state. A
   second test pins the plan, cost and result count of a short Monsoon run
   per query. *)

open Monsoon_util
open Monsoon_relalg
open Monsoon_stats
open Monsoon_core
open Monsoon_workloads
open Monsoon_baselines
module Experiments = Monsoon_harness.Experiments
module Runner = Monsoon_harness.Runner

(* --- the reference --- *)

module Ref = struct
  open Mdp

  let connecting q left right =
    Array.to_list (Query.preds q)
    |> List.filter (fun p ->
           match Predicate.join_sides p with
           | None -> false
           | Some (l, r) ->
             let lm = Term.rels l and rm = Term.rels r in
             (Relset.subset lm left && Relset.subset rm right)
             || (Relset.subset lm right && Relset.subset rm left))
    |> List.map Predicate.id

  let connected q left right = connecting q left right <> []

  let interesting_terms q mask =
    Array.to_list (Query.terms q)
    |> List.filter (fun tm ->
           Query.preds_of_term q tm.Term.id <> [] && Term.evaluable tm mask)

  let sort_plans plans = List.sort_uniq Expr.compare plans

  let covered_in_rp state mask =
    List.exists (fun e -> Relset.subset mask (Expr.mask e)) state.r_p

  let stats_useful ctx state mask =
    List.exists
      (fun tm -> not (Stats_catalog.has_measurement state.stats ~term:tm.Term.id))
      (interesting_terms ctx.query mask)

  let legal_actions ctx state =
    let q = ctx.query in
    let planned_joinable =
      List.filter (fun e -> not (Expr.has_stats e)) state.r_p
    in
    let candidates = ref [] in
    let add_candidate action left right =
      candidates := (action, connected q left right) :: !candidates
    in
    let rec pairs = function
      | [] -> ()
      | m1 :: rest ->
        List.iter
          (fun m2 ->
            if Relset.disjoint m1 m2 then begin
              let union = Relset.union m1 m2 in
              if (not (List.mem union state.r_e)) && not (covered_in_rp state union)
              then add_candidate (Join_exec (m1, m2)) m1 m2
            end)
          rest;
        pairs rest
    in
    pairs state.r_e;
    let union_useful ~consumed union =
      (not (List.mem union state.r_e))
      && not
           (List.exists
              (fun e ->
                (not (List.memq e consumed)) && Relset.equal (Expr.mask e) union)
              state.r_p)
    in
    let rec plan_pairs = function
      | [] -> ()
      | e1 :: rest ->
        List.iter
          (fun e2 ->
            if
              Relset.disjoint (Expr.mask e1) (Expr.mask e2)
              && union_useful ~consumed:[ e1; e2 ]
                   (Relset.union (Expr.mask e1) (Expr.mask e2))
            then
              add_candidate (Join_planned (e1, e2)) (Expr.mask e1) (Expr.mask e2))
          rest;
        plan_pairs rest
    in
    plan_pairs planned_joinable;
    List.iter
      (fun m ->
        List.iter
          (fun e ->
            if
              Relset.disjoint m (Expr.mask e)
              && union_useful ~consumed:[ e ] (Relset.union m (Expr.mask e))
            then add_candidate (Join_mixed (m, e)) m (Expr.mask e))
          planned_joinable)
      state.r_e;
    let connected_exists = List.exists snd !candidates in
    let joins =
      !candidates
      |> List.filter (fun (_, conn) -> conn || not connected_exists)
      |> List.map fst
    in
    let sigma_exec =
      state.r_e
      |> List.filter (fun m ->
             stats_useful ctx state m
             && not
                  (List.exists
                     (fun e -> Expr.has_stats e && Relset.equal (Expr.mask e) m)
                     state.r_p))
      |> List.map (fun m -> Add_stats_of_exec m)
    in
    let sigma_wrap =
      planned_joinable
      |> List.filter (fun e -> stats_useful ctx state (Expr.mask e))
      |> List.map (fun e -> Wrap_stats e)
    in
    let execute = if state.r_p = [] then [] else [ Execute ] in
    let opens_new_plan = function
      | Add_stats_of_exec _ | Join_exec _ -> true
      | Wrap_stats _ | Join_planned _ | Join_mixed _ | Execute -> false
    in
    let all = joins @ sigma_exec @ sigma_wrap @ execute in
    if List.length state.r_p >= 2 then
      List.filter (fun a -> not (opens_new_plan a)) all
    else all

  let state_key state =
    let int64 v =
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 v;
      Bytes.to_string b
    in
    let int i = int64 (Int64.of_int i) and float x = int64 (Int64.bits_of_float x) in
    let section items = int (List.length items) ^ String.concat "" items in
    let plans =
      List.map (fun e -> int (String.length (Expr.key e)) ^ Expr.key e) state.r_p
    in
    let counts =
      List.sort compare (Stats_catalog.counts state.stats)
      |> List.map (fun (m, c) -> int m ^ float c)
    in
    let dists = List.sort compare (Stats_catalog.distincts state.stats) in
    let scope keep = section (List.filter_map keep dists) in
    String.concat ""
      [ section plans;
        section (List.map int state.r_e);
        section counts;
        scope (function
          | tm, Stats_catalog.Wildcard, d -> Some (int tm ^ float d)
          | _ -> None);
        scope (function
          | tm, Stats_catalog.For_pred p, d -> Some (int tm ^ int p ^ float d)
          | _ -> None);
        scope (function
          | tm, Stats_catalog.For_select, d -> Some (int tm ^ float d)
          | _ -> None) ]
end

(* --- the query sets: every quick OTT and UDF query, and every IMDB query
   of at most five instances --- *)

let quick = Experiments.quick

let suites =
  lazy
    (let imdb = Imdb.workload { Imdb.seed = quick.Experiments.seed; scale = quick.imdb_scale } in
     let ott =
       Ott.workload { Ott.seed = quick.seed; scale = quick.ott_scale; domain = 100 }
     in
     let udf =
       Udf_bench.workload
         { Udf_bench.seed = quick.seed;
           imdb_scale = quick.udf_imdb_scale;
           tpch_scale = quick.udf_tpch_scale }
     in
     let small (_, q) = Query.n_rels q <= 5 in
     [ (ott, quick.ott_budget, ott.Workload.queries);
       (udf, quick.udf_budget, udf.Workload.queries);
       (imdb, quick.imdb_budget, List.filter small imdb.Workload.queries) ])

let cases =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (w, _, qs) ->
            List.map (fun (name, q) -> (name, Mdp.make_ctx w.Workload.catalog q)) qs)
          (Lazy.force suites)))

(* --- random walks against the reference --- *)

let max_walk_steps = 60

(* Walks from the initial state, picking actions with the walk's RNG and
   stepping the simulator; returns the first state where the library and
   the reference disagree, described. *)
let walk ?trace ~case ~seed () =
  let name, ctx = (Lazy.force cases).(case) in
  let sim = Simulator.create ctx Prior.spike_and_slab (Rng.create seed) in
  let pick = Rng.create (seed + 1) in
  let rec go state k =
    let lib_acts = Mdp.legal_actions ctx state in
    let ref_acts = Ref.legal_actions ctx state in
    let lib_key = Mdp.state_key state and ref_key = Ref.state_key state in
    let show acts = String.concat " / " (List.map (Mdp.describe_action ctx) acts) in
    Option.iter
      (fun b -> Printf.bprintf b "%s\n%s\n" ref_key (show ref_acts))
      trace;
    if lib_acts <> ref_acts then
      Some (Printf.sprintf "%s step %d: actions\n  lib %s\n  ref %s" name k
              (show lib_acts) (show ref_acts))
    else if lib_key <> ref_key then
      Some
        (Printf.sprintf "%s step %d: key\n  lib %S\n  ref %S" name k lib_key
           ref_key)
    else if Ref.sort_plans state.Mdp.r_p <> state.Mdp.r_p then Some (Printf.sprintf "%s step %d: R_p out of order" name k)
    else if Mdp.is_terminal ctx state || k >= max_walk_steps || lib_acts = [] then None
    else
      let a = List.nth lib_acts (Rng.int pick (List.length lib_acts)) in
      let state', _ = Simulator.step sim state a in
      go state' (k + 1)
  in
  go (Mdp.init_state ctx) 0

let prop_walks_match_reference =
  QCheck.Test.make ~name:"legal actions and state keys match the reference" ~count:400
    QCheck.(pair (int_bound 10_000) (int_bound 1_000_000))
    (fun (i, seed) ->
      let n = Array.length (Lazy.force cases) in
      match walk ~case:(i mod n) ~seed () with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* Every query, one fixed walk each, so every query is covered whatever
   seeds QCheck draws. The digest of every key and action list these walks
   visit pins the bytes of [Expr.key], which [Ref] shares with the
   library. *)
let expected_walk_digest = "2d79ff042b5dace74933ef00a4eb904d"

let test_every_query_walks () =
  let trace = Buffer.create 4096 in
  Array.iteri
    (fun i _ ->
      match walk ~trace ~case:i ~seed:(17 * (i + 1)) () with
      | None -> ()
      | Some msg -> Alcotest.fail msg)
    (Lazy.force cases);
  Alcotest.(check string) "walk digest" expected_walk_digest
    (Digest.to_hex (Digest.string (Buffer.contents trace)))

(* --- plan fingerprints --- *)

let fingerprint_iterations = 50

let fingerprints () =
  List.concat_map
    (fun (w, budget, qs) ->
      let strategy =
        Strategy.monsoon ~iterations:fingerprint_iterations Prior.spike_and_slab
      in
      List.map
        (fun (name, q) ->
          let rng = Runner.cell_rng ~seed:quick.seed ~strategy:"Monsoon" ~query:name in
          let o = strategy.Strategy.run ~rng ~budget w.Workload.catalog q in
          Printf.sprintf "%s cost=%.17g card=%.17g plan=%s" name o.Strategy.cost
            o.Strategy.result_card o.Strategy.plan)
        qs)
    (Lazy.force suites)

(* Recorded from the planner that [Ref] reproduces. *)
let expected_fingerprints =
  [
    {|oq1 cost=180 card=0 plan=plan ott2_1 ⨝ ott3_2 | plan Σ(ott1_0) | wrap Σ((ott2_1 ⨝ ott3_2)) | EXECUTE | plan ott1_0 ⨝ [ott2_1,ott3_2] | EXECUTE|};
    {|oq2 cost=66 card=0 plan=plan ott2_0 ⨝ ott3_1 | attach ott4_2 ⨝ (ott2_0 ⨝ ott3_1) | EXECUTE|};
    {|oq3 cost=0 card=0 plan=plan ott4_1 ⨝ ott5_2 | EXECUTE | plan Σ([ott4_1,ott5_2]) | plan ott3_0 ⨝ [ott4_1,ott5_2] | wrap Σ((ott3_0 ⨝ [ott4_1,ott5_2])) | EXECUTE|};
    {|oq4 cost=400 card=0 plan=plan ott5_1 ⨝ ott6_2 | EXECUTE | plan ott4_0 ⨝ [ott5_1,ott6_2] | EXECUTE|};
    {|oq5 cost=132 card=0 plan=plan ott3_1 ⨝ ott5_2 | EXECUTE | plan ott1_0 ⨝ [ott3_1,ott5_2] | EXECUTE|};
    {|oq6 cost=114 card=0 plan=plan ott2_0 ⨝ ott4_1 | plan Σ(ott6_2) | attach ott6_2 ⨝ (ott2_0 ⨝ ott4_1) | wrap Σ(((ott2_0 ⨝ ott4_1) ⨝ ott6_2)) | EXECUTE|};
    {|oq7 cost=70 card=0 plan=plan ott2_1 ⨝ ott3_2 | attach ott1_0 ⨝ (ott2_1 ⨝ ott3_2) | attach ott4_3 ⨝ (ott1_0 ⨝ (ott2_1 ⨝ ott3_2)) | plan Σ(ott1_0) | wrap Σ(((ott1_0 ⨝ (ott2_1 ⨝ ott3_2)) ⨝ ott4_3)) | EXECUTE|};
    {|oq8 cost=4666 card=0 plan=plan ott4_2 ⨝ ott5_3 | plan Σ(ott2_0) | wrap Σ((ott4_2 ⨝ ott5_3)) | EXECUTE | plan Σ(ott3_1) | EXECUTE | plan ott3_1 ⨝ [ott4_2,ott5_3] | attach ott2_0 ⨝ (ott3_1 ⨝ [ott4_2,ott5_3]) | EXECUTE|};
    {|oq9 cost=582 card=0 plan=plan ott3_0 ⨝ ott4_1 | plan ott5_2 ⨝ ott6_3 | EXECUTE | plan Σ(ott4_1) | plan [ott3_0,ott4_1] ⨝ [ott5_2,ott6_3] | EXECUTE|};
    {|oq10 cost=4426 card=0 plan=plan ott4_2 ⨝ ott6_3 | plan Σ(ott1_0) | wrap Σ((ott4_2 ⨝ ott6_3)) | EXECUTE | plan Σ(ott2_1) | EXECUTE | plan ott2_1 ⨝ [ott4_2,ott6_3] | attach ott1_0 ⨝ (ott2_1 ⨝ [ott4_2,ott6_3]) | EXECUTE|};
    {|oq11 cost=7987 card=0 plan=plan ott1_0 ⨝ ott3_1 | attach ott4_2 ⨝ (ott1_0 ⨝ ott3_1) | attach ott5_3 ⨝ ((ott1_0 ⨝ ott3_1) ⨝ ott4_2) | EXECUTE|};
    {|oq12 cost=288 card=0 plan=plan ott3_1 ⨝ ott5_2 | attach ott2_0 ⨝ (ott3_1 ⨝ ott5_2) | EXECUTE | plan [ott2_0,ott3_1,ott5_2] ⨝ ott6_3 | plan Σ([ott2_0,ott3_1,ott5_2]) | wrap Σ(([ott2_0,ott3_1,ott5_2] ⨝ ott6_3)) | EXECUTE|};
    {|oq13 cost=676 card=0 plan=plan ott1_0 ⨝ ott4_1 | plan Σ(ott4_1) | attach ott5_2 ⨝ (ott1_0 ⨝ ott4_1) | attach ott6_3 ⨝ ((ott1_0 ⨝ ott4_1) ⨝ ott5_2) | wrap Σ((((ott1_0 ⨝ ott4_1) ⨝ ott5_2) ⨝ ott6_3)) | EXECUTE|};
    {|oq14 cost=39121 card=0 plan=plan ott2_1 ⨝ ott3_2 | plan ott1_0 ⨝ ott2_1 | EXECUTE | plan ott3_2 ⨝ ott4_3 | plan Σ([ott1_0,ott2_1]) | wrap Σ((ott3_2 ⨝ ott4_3)) | EXECUTE | plan ott2_1 ⨝ [ott3_2,ott4_3] | plan [ott1_0,ott2_1] ⨝ [ott3_2,ott4_3] | attach ott5_4 ⨝ ([ott1_0,ott2_1] ⨝ [ott3_2,ott4_3]) | attach ott1_0 ⨝ (ott2_1 ⨝ [ott3_2,ott4_3]) | wrap Σ((([ott1_0,ott2_1] ⨝ [ott3_2,ott4_3]) ⨝ ott5_4)) | EXECUTE|};
    {|oq15 cost=3412 card=0 plan=plan Σ(ott5_3) | plan ott5_3 ⨝ ott6_4 | EXECUTE | plan ott2_0 ⨝ ott3_1 | attach ott4_2 ⨝ (ott2_0 ⨝ ott3_1) | EXECUTE | plan [ott2_0,ott3_1,ott4_2] ⨝ [ott5_3,ott6_4] | EXECUTE|};
    {|oq16 cost=38272 card=0 plan=plan ott3_2 ⨝ ott5_3 | plan ott1_0 ⨝ ott2_1 | wrap Σ((ott1_0 ⨝ ott2_1)) | EXECUTE | plan ott5_3 ⨝ ott6_4 | plan [ott1_0,ott2_1] ⨝ [ott3_2,ott5_3] | EXECUTE | plan [ott1_0,ott2_1] ⨝ ott3_2 | wrap Σ(([ott1_0,ott2_1] ⨝ ott3_2)) | plan [ott1_0,ott2_1,ott3_2,ott5_3] ⨝ ott6_4 | EXECUTE|};
    {|oq17 cost=33872 card=0 plan=plan ott1_0 ⨝ ott2_1 | plan ott2_1 ⨝ ott4_2 | wrap Σ((ott2_1 ⨝ ott4_2)) | wrap Σ((ott1_0 ⨝ ott2_1)) | EXECUTE | plan ott4_2 ⨝ ott5_3 | EXECUTE | plan ott1_0 ⨝ [ott2_1,ott4_2] | attach ott5_3 ⨝ (ott1_0 ⨝ [ott2_1,ott4_2]) | EXECUTE | plan [ott1_0,ott2_1,ott4_2,ott5_3] ⨝ ott6_4 | EXECUTE|};
    {|oq18 cost=23850 card=0 plan=plan Σ(ott5_3) | plan Σ(ott4_2) | EXECUTE | plan ott1_0 ⨝ ott3_1 | plan ott5_3 ⨝ ott6_4 | EXECUTE | plan ott3_1 ⨝ ott4_2 | plan [ott1_0,ott3_1] ⨝ ott4_2 | EXECUTE | plan ott4_2 ⨝ [ott5_3,ott6_4] | plan [ott1_0,ott3_1,ott4_2] ⨝ ott5_3 | attach [ott1_0,ott3_1] ⨝ (ott4_2 ⨝ [ott5_3,ott6_4]) | EXECUTE|};
    {|oq19 cost=95443 card=0 plan=plan ott2_1 ⨝ ott3_2 | attach ott1_0 ⨝ (ott2_1 ⨝ ott3_2) | plan Σ(ott4_3) | attach ott4_3 ⨝ (ott1_0 ⨝ (ott2_1 ⨝ ott3_2)) | attach ott6_4 ⨝ ((ott1_0 ⨝ (ott2_1 ⨝ ott3_2)) ⨝ ott4_3) | EXECUTE|};
    {|oq20 cost=22718 card=0 plan=plan Σ(ott3_2) | plan ott2_0 ⨝ ott1_1 | wrap Σ((ott2_0 ⨝ ott1_1)) | EXECUTE | plan ott3_2 ⨝ ott5_3 | plan [ott2_0,ott1_1] ⨝ ott3_2 | attach [ott2_0,ott1_1] ⨝ (ott3_2 ⨝ ott5_3) | attach ott4_4 ⨝ ([ott2_0,ott1_1] ⨝ (ott3_2 ⨝ ott5_3)) | wrap Σ((([ott2_0,ott1_1] ⨝ (ott3_2 ⨝ ott5_3)) ⨝ ott4_4)) | EXECUTE|};
    {|uq1 cost=3584 card=2604 plan=plan Σ(n) | plan ci ⨝ n | EXECUTE | plan t ⨝ [ci,n] | EXECUTE|};
    {|uq2 cost=2074 card=2074 plan=plan ci ⨝ n | attach t ⨝ (ci ⨝ n) | EXECUTE|};
    {|uq3 cost=25 card=14 plan=plan t ⨝ ci | EXECUTE | plan [t,ci] ⨝ n | EXECUTE|};
    {|uq4 cost=979 card=979 plan=plan mc ⨝ cn | EXECUTE | plan t ⨝ [mc,cn] | EXECUTE|};
    {|uq5 cost=440 card=412 plan=plan mc ⨝ cn | attach t ⨝ (mc ⨝ cn) | plan Σ(cn) | EXECUTE|};
    {|uq6 cost=163 card=144 plan=plan Σ(cn) | plan mc ⨝ cn | attach t ⨝ (mc ⨝ cn) | EXECUTE|};
    {|uq7 cost=17637 card=1161 plan=plan t ⨝ ci | plan Σ(mc) | wrap Σ((t ⨝ ci)) | EXECUTE | plan [t,ci] ⨝ n | attach mc ⨝ ([t,ci] ⨝ n) | EXECUTE | plan [t,ci,n,mc] ⨝ cn | EXECUTE|};
    {|uq8 cost=8015 card=351 plan=plan Σ(t) | plan Σ(mc) | EXECUTE | plan t ⨝ mc | plan Σ(cn) | attach cn ⨝ (t ⨝ mc) | attach ci ⨝ ((t ⨝ mc) ⨝ cn) | attach n ⨝ (ci ⨝ ((t ⨝ mc) ⨝ cn)) | wrap Σ((n ⨝ (ci ⨝ ((t ⨝ mc) ⨝ cn)))) | EXECUTE|};
    {|uq9 cost=11947 card=147 plan=plan Σ(cn) | plan t ⨝ mc | wrap Σ((t ⨝ mc)) | EXECUTE | plan Σ(n) | plan ci ⨝ [t,mc] | attach cn ⨝ (ci ⨝ [t,mc]) | attach n ⨝ ((ci ⨝ [t,mc]) ⨝ cn) | wrap Σ((n ⨝ ((ci ⨝ [t,mc]) ⨝ cn))) | EXECUTE|};
    {|uq10 cost=96 card=28 plan=plan t ⨝ mi | attach it ⨝ (t ⨝ mi) | EXECUTE|};
    {|uq11 cost=82 card=2 plan=plan t ⨝ mi | plan Σ(t) | attach it ⨝ (t ⨝ mi) | EXECUTE|};
    {|uq12 cost=3 card=1 plan=plan Σ(it) | plan t ⨝ mi | attach it ⨝ (t ⨝ mi) | EXECUTE|};
    {|uq13 cost=2772 card=848 plan=plan t ⨝ mk | attach k ⨝ (t ⨝ mk) | attach ci ⨝ ((t ⨝ mk) ⨝ k) | EXECUTE|};
    {|uq14 cost=46 card=47 plan=plan mk ⨝ k | attach t ⨝ (mk ⨝ k) | attach ci ⨝ (t ⨝ (mk ⨝ k)) | EXECUTE|};
    {|uq15 cost=4806 card=7 plan=plan mk ⨝ k | plan t ⨝ ci | EXECUTE | plan [mk,k] ⨝ [t,ci] | EXECUTE|};
    {|uq16 cost=488 card=244 plan=plan Σ(o) | plan o ⨝ c | attach n ⨝ (o ⨝ c) | EXECUTE|};
    {|uq17 cost=276 card=251 plan=plan Σ(n) | plan o ⨝ c | EXECUTE | plan [o,c] ⨝ n | EXECUTE|};
    {|uq18 cost=3191 card=35 plan=plan l ⨝ o | plan Σ(l) | attach p ⨝ (l ⨝ o) | wrap Σ(((l ⨝ o) ⨝ p)) | EXECUTE|};
    {|uq19 cost=1635 card=0 plan=plan l ⨝ o | plan Σ(p) | attach p ⨝ (l ⨝ o) | EXECUTE|};
    {|uq20 cost=798 card=399 plan=plan Σ(l) | plan l ⨝ s | EXECUTE | plan [l,s] ⨝ n | EXECUTE|};
    {|uq21 cost=925 card=450 plan=plan Σ(l) | plan l ⨝ s | EXECUTE | plan Σ(n) | plan [l,s] ⨝ n | EXECUTE|};
    {|uq22 cost=28 card=28 plan=plan c ⨝ n | EXECUTE | plan [c,n] ⨝ r | EXECUTE|};
    {|uq23 cost=27 card=27 plan=plan c ⨝ n | attach r ⨝ (c ⨝ n) | EXECUTE|};
    {|uq24 cost=2417 card=0 plan=plan Σ(s) | plan o ⨝ c | wrap Σ((o ⨝ c)) | EXECUTE | plan Σ(n) | plan s ⨝ n | wrap Σ((s ⨝ n)) | EXECUTE | plan [o,c] ⨝ [s,n] | EXECUTE|};
    {|uq25 cost=3617 card=0 plan=plan o ⨝ c | plan Σ(s) | attach s ⨝ (o ⨝ c) | wrap Σ(((o ⨝ c) ⨝ s)) | EXECUTE | plan Σ(n) | plan s ⨝ n | EXECUTE | plan [o,c,s] ⨝ n | EXECUTE|};
    {|iq1 cost=1907 card=439 plan=plan mc ⨝ cn | attach t ⨝ (mc ⨝ cn) | plan Σ(t) | EXECUTE|};
    {|iq2 cost=68 card=68 plan=plan mc ⨝ cn | EXECUTE | plan t ⨝ [mc,cn] | EXECUTE|};
    {|iq3 cost=272 card=7 plan=plan Σ(t) | plan mc ⨝ cn | attach t ⨝ (mc ⨝ cn) | EXECUTE|};
    {|iq4 cost=12 card=12 plan=plan mc ⨝ cn | EXECUTE | plan t ⨝ [mc,cn] | EXECUTE|};
    {|iq5 cost=287 card=6 plan=plan Σ(t) | plan mc ⨝ cn | attach t ⨝ (mc ⨝ cn) | EXECUTE|};
    {|iq6 cost=84 card=38 plan=plan t ⨝ ci | EXECUTE | plan [t,ci] ⨝ n | EXECUTE|};
    {|iq7 cost=4294 card=26 plan=plan ci ⨝ n | attach t ⨝ (ci ⨝ n) | plan Σ(n) | EXECUTE|};
    {|iq8 cost=16 card=1 plan=plan t ⨝ ci | EXECUTE | plan [t,ci] ⨝ n | EXECUTE|};
    {|iq9 cost=4111 card=10 plan=plan Σ(n) | plan ci ⨝ n | attach t ⨝ (ci ⨝ n) | EXECUTE|};
    {|iq10 cost=3103 card=9 plan=plan ci ⨝ n | EXECUTE | plan t ⨝ [ci,n] | EXECUTE|};
    {|iq11 cost=5115 card=439 plan=plan Σ(it) | plan t ⨝ mi | attach it ⨝ (t ⨝ mi) | attach kt ⨝ ((t ⨝ mi) ⨝ it) | EXECUTE|};
    {|iq12 cost=4992 card=54 plan=plan Σ(kt) | plan t ⨝ mi | attach kt ⨝ (t ⨝ mi) | attach it ⨝ ((t ⨝ mi) ⨝ kt) | EXECUTE|};
    {|iq13 cost=337 card=14 plan=plan mi ⨝ it | plan Σ(it) | EXECUTE | plan t ⨝ kt | EXECUTE | plan [mi,it] ⨝ [t,kt] | EXECUTE|};
    {|iq14 cost=174 card=3 plan=plan mi ⨝ it | attach t ⨝ (mi ⨝ it) | attach kt ⨝ (t ⨝ (mi ⨝ it)) | EXECUTE|};
    {|iq15 cost=2132 card=5 plan=plan Σ(it) | plan Σ(t) | EXECUTE | plan Σ(kt) | plan mi ⨝ it | attach t ⨝ (mi ⨝ it) | attach kt ⨝ (t ⨝ (mi ⨝ it)) | EXECUTE|};
    {|iq16 cost=8000 card=187 plan=plan Σ(mk) | plan t ⨝ kt | attach mk ⨝ (t ⨝ kt) | attach k ⨝ (mk ⨝ (t ⨝ kt)) | EXECUTE|};
    {|iq17 cost=22 card=11 plan=plan mk ⨝ k | attach t ⨝ (mk ⨝ k) | attach kt ⨝ (t ⨝ (mk ⨝ k)) | EXECUTE|};
    {|iq18 cost=8024 card=16 plan=plan Σ(mk) | plan Σ(k) | EXECUTE | plan t ⨝ kt | plan Σ(kt) | attach mk ⨝ (t ⨝ kt) | attach k ⨝ (mk ⨝ (t ⨝ kt)) | wrap Σ((k ⨝ (mk ⨝ (t ⨝ kt)))) | EXECUTE|};
    {|iq19 cost=7 card=0 plan=plan Σ(kt) | plan mk ⨝ k | EXECUTE | plan t ⨝ [mk,k] | plan Σ(k) | attach kt ⨝ (t ⨝ [mk,k]) | wrap Σ(((t ⨝ [mk,k]) ⨝ kt)) | EXECUTE|};
    {|iq20 cost=9 card=1 plan=plan mk ⨝ k | attach t ⨝ (mk ⨝ k) | plan Σ(kt) | attach kt ⨝ (t ⨝ (mk ⨝ k)) | EXECUTE|};
    {|iq21 cost=6965 card=485 plan=plan Σ(t) | plan Σ(mc) | EXECUTE | plan mc ⨝ cn | plan Σ(ct) | attach ct ⨝ (mc ⨝ cn) | attach t ⨝ ((mc ⨝ cn) ⨝ ct) | EXECUTE | plan [t,mc,cn,ct] ⨝ kt | EXECUTE|};
    {|iq22 cost=6286 card=71 plan=plan Σ(mc) | plan t ⨝ kt | EXECUTE | plan mc ⨝ ct | plan mc ⨝ cn | attach [t,kt] ⨝ (mc ⨝ cn) | attach ct ⨝ ((mc ⨝ cn) ⨝ [t,kt]) | EXECUTE|};
    {|iq23 cost=3600 card=39 plan=plan mc ⨝ ct | attach cn ⨝ (mc ⨝ ct) | plan Σ(mc) | EXECUTE | plan Σ(ct) | plan Σ(kt) | EXECUTE | plan t ⨝ [mc,cn,ct] | plan Σ(cn) | attach kt ⨝ (t ⨝ [mc,cn,ct]) | wrap Σ(((t ⨝ [mc,cn,ct]) ⨝ kt)) | EXECUTE|};
    {|iq24 cost=6396 card=8 plan=plan Σ(kt) | plan t ⨝ mc | attach kt ⨝ (t ⨝ mc) | attach ct ⨝ ((t ⨝ mc) ⨝ kt) | attach cn ⨝ (ct ⨝ ((t ⨝ mc) ⨝ kt)) | wrap Σ((cn ⨝ (ct ⨝ ((t ⨝ mc) ⨝ kt)))) | EXECUTE|};
    {|iq25 cost=8992 card=387 plan=plan Σ(mc) | plan t ⨝ kt | wrap Σ((t ⨝ kt)) | EXECUTE | plan mc ⨝ cn | attach [t,kt] ⨝ (mc ⨝ cn) | attach ct ⨝ ((mc ⨝ cn) ⨝ [t,kt]) | plan Σ(ct) | wrap Σ((ct ⨝ ((mc ⨝ cn) ⨝ [t,kt]))) | EXECUTE|};
    {|iq26 cost=27147 card=8315 plan=plan Σ(n) | EXECUTE | plan ci ⨝ n | plan Σ(mi) | EXECUTE | plan t ⨝ mi | plan Σ(rt) | attach [ci,n] ⨝ (t ⨝ mi) | EXECUTE | plan rt ⨝ [t,ci,n,mi] | EXECUTE|};
    {|iq27 cost=11798 card=730 plan=plan Σ(mi) | plan t ⨝ ci | attach mi ⨝ (t ⨝ ci) | attach rt ⨝ ((t ⨝ ci) ⨝ mi) | attach n ⨝ (rt ⨝ ((t ⨝ ci) ⨝ mi)) | wrap Σ((n ⨝ (rt ⨝ ((t ⨝ ci) ⨝ mi)))) | EXECUTE|};
    {|iq28 cost=11699 card=16 plan=plan Σ(ci) | plan Σ(t) | EXECUTE | plan Σ(mi) | plan Σ(n) | EXECUTE | plan Σ(rt) | plan ci ⨝ rt | EXECUTE | plan t ⨝ mi | plan t ⨝ [ci,rt] | attach mi ⨝ (t ⨝ [ci,rt]) | attach n ⨝ ((t ⨝ [ci,rt]) ⨝ mi) | EXECUTE|};
    {|iq29 cost=8862 card=96 plan=plan Σ(ci) | plan t ⨝ mi | wrap Σ((t ⨝ mi)) | EXECUTE | plan ci ⨝ [t,mi] | attach n ⨝ (ci ⨝ [t,mi]) | EXECUTE | plan rt ⨝ [t,ci,n,mi] | EXECUTE|};
    {|iq30 cost=24089 card=0 plan=plan Σ(mi) | plan Σ(rt) | EXECUTE | plan ci ⨝ n | plan t ⨝ ci | wrap Σ((ci ⨝ n)) | wrap Σ((t ⨝ ci)) | EXECUTE | plan t ⨝ mi | plan [t,ci] ⨝ mi | attach n ⨝ ([t,ci] ⨝ mi) | attach rt ⨝ (n ⨝ ([t,ci] ⨝ mi)) | EXECUTE|};
    {|iq46 cost=5215 card=1324 plan=plan t ⨝ mi2 | plan mi1 ⨝ it1 | attach it2 ⨝ (t ⨝ mi2) | combine ((t ⨝ mi2) ⨝ it2) ⨝ (mi1 ⨝ it1) | EXECUTE|};
    {|iq47 cost=26746 card=509 plan=plan Σ(t) | plan mi1 ⨝ it1 | wrap Σ((mi1 ⨝ it1)) | EXECUTE | plan Σ(it2) | plan t ⨝ [mi1,it1] | attach mi2 ⨝ (t ⨝ [mi1,it1]) | attach it2 ⨝ ((t ⨝ [mi1,it1]) ⨝ mi2) | EXECUTE|};
    {|iq48 cost=22903 card=319 plan=plan Σ(it2) | plan t ⨝ mi1 | wrap Σ((t ⨝ mi1)) | EXECUTE | plan mi1 ⨝ it1 | plan [t,mi1] ⨝ it1 | attach mi2 ⨝ ([t,mi1] ⨝ it1) | attach it2 ⨝ (([t,mi1] ⨝ it1) ⨝ mi2) | wrap Σ(((([t,mi1] ⨝ it1) ⨝ mi2) ⨝ it2)) | EXECUTE|};
    {|iq49 cost=185518 card=293 plan=plan t ⨝ mi2 | attach mi1 ⨝ (t ⨝ mi2) | plan Σ(it2) | attach it1 ⨝ (mi1 ⨝ (t ⨝ mi2)) | EXECUTE | plan [t,mi1,mi2] ⨝ it2 | attach it1 ⨝ ([t,mi1,mi2] ⨝ it2) | EXECUTE|};
    {|iq50 cost=14411 card=234 plan=plan Σ(mi2) | EXECUTE | plan Σ(t) | plan Σ(mi1) | EXECUTE | plan mi2 ⨝ it2 | attach t ⨝ (mi2 ⨝ it2) | plan Σ(it2) | attach mi1 ⨝ (t ⨝ (mi2 ⨝ it2)) | EXECUTE | plan it1 ⨝ [t,mi1,mi2,it2] | EXECUTE|};
    {|iq51 cost=15283 card=17 plan=plan Σ(cn) | plan Σ(mc) | EXECUTE | plan Σ(t) | plan ci ⨝ n | EXECUTE | plan Σ([ci,n]) | EXECUTE | plan ci ⨝ t | plan t ⨝ [ci,n] | attach mc ⨝ (t ⨝ [ci,n]) | attach cn ⨝ ((t ⨝ [ci,n]) ⨝ mc) | EXECUTE|};
    {|iq52 cost=5768 card=0 plan=plan Σ(t) | plan ci ⨝ t | wrap Σ((ci ⨝ t)) | EXECUTE | plan Σ(mc) | plan Σ(n) | EXECUTE | plan [ci,t] ⨝ n | plan [ci,t] ⨝ mc | attach mc ⨝ ([ci,t] ⨝ n) | attach cn ⨝ (([ci,t] ⨝ n) ⨝ mc) | EXECUTE|};
    {|iq53 cost=112 card=2 plan=plan ci ⨝ t | plan Σ(t) | attach mc ⨝ (ci ⨝ t) | attach n ⨝ ((ci ⨝ t) ⨝ mc) | wrap Σ((n ⨝ ((ci ⨝ t) ⨝ mc))) | EXECUTE | plan [ci,t,n,mc] ⨝ cn | EXECUTE|};
    {|iq54 cost=12088 card=0 plan=plan Σ(t) | plan Σ(cn) | EXECUTE | plan ci ⨝ n | wrap Σ((ci ⨝ n)) | EXECUTE | plan t ⨝ [ci,n] | EXECUTE | plan mc ⨝ cn | attach t ⨝ (mc ⨝ cn) | attach [ci,n] ⨝ (t ⨝ (mc ⨝ cn)) | EXECUTE|};
    {|iq55 cost=2557 card=1 plan=plan Σ(n) | plan ci ⨝ t | wrap Σ((ci ⨝ t)) | EXECUTE | plan [ci,t] ⨝ mc | attach cn ⨝ ([ci,t] ⨝ mc) | attach n ⨝ (([ci,t] ⨝ mc) ⨝ cn) | EXECUTE|};
  ]

let test_plan_fingerprints () =
  let got = fingerprints () in
  Alcotest.(check (list string)) "plan, cost, result count" expected_fingerprints got

let () =
  Alcotest.run "planner-oracle"
    [ ( "reference",
        [ Alcotest.test_case "every query walks" `Quick test_every_query_walks;
          QCheck_alcotest.to_alcotest prop_walks_match_reference ] );
      ( "fingerprints",
        [ Alcotest.test_case "monsoon at 50 iterations" `Quick test_plan_fingerprints ] ) ]
