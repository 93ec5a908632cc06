open Monsoon_storage
open Monsoon_relalg
open Monsoon_stats

type state = {
  r_p : Expr.t list;
  r_e : Relset.t list;
  stats : Stats_catalog.t;
}

type action =
  | Add_stats_of_exec of Relset.t
  | Wrap_stats of Expr.t
  | Join_exec of Relset.t * Relset.t
  | Join_planned of Expr.t * Expr.t
  | Join_mixed of Relset.t * Expr.t
  | Execute

type ctx = { query : Query.t; raw_counts : float array }

let make_ctx catalog query =
  let raw_counts =
    Array.map
      (fun r ->
        float_of_int (Table.cardinality (Catalog.find catalog r.Query.table)))
      (Query.rels query)
  in
  { query; raw_counts }

let init_state ctx =
  { r_p = [];
    r_e = List.init (Query.n_rels ctx.query) Relset.singleton;
    stats = Stats_catalog.create () }

let is_terminal ctx state = List.mem (Query.all_mask ctx.query) state.r_e

let sort_plans plans = List.sort_uniq Expr.compare plans

(* Does R_p already contain a plan covering (at least) this mask? Used to
   avoid planning redundant work. *)
let covered_in_rp state mask =
  List.exists (fun e -> Relset.subset mask (Expr.mask e)) state.r_p

(* Σ over an expression is useful only when it would measure a statistic
   not yet known. *)
let stats_useful ctx state mask =
  List.exists
    (fun tm -> not (Stats_catalog.has_measurement state.stats ~term:tm.Term.id))
    (Query.interesting_terms ctx.query mask)

let legal_actions ctx state =
  let q = ctx.query in
  let planned_joinable =
    List.filter (fun e -> not (Expr.has_stats e)) state.r_p
  in
  (* Join candidates across the three action types, tagged with
     connectivity. *)
  let candidates = ref [] in
  let add_candidate action left right =
    candidates := (action, Query.connected q left right) :: !candidates
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
  (* A join plan whose result already exists (mask in R_e) or duplicates
     another plan's coverage is pointless — and executing duplicates would
     leave inner nodes unmaterialized behind the result cache. *)
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
  (* Plan-sprawl cap: with two pending plans, only plan-modifying moves and
     EXECUTE are offered — materializing large sets of speculative
     subplans in one step is never useful and bloats the search space. *)
  let opens_new_plan = function
    | Add_stats_of_exec _ | Join_exec _ -> true
    | Wrap_stats _ | Join_planned _ | Join_mixed _ | Execute -> false
  in
  let all = joins @ sigma_exec @ sigma_wrap @ execute in
  if List.length state.r_p >= 2 then
    List.filter (fun a -> not (opens_new_plan a)) all
  else all

let remove_plan state e =
  List.filter (fun e' -> not (Expr.equal e e')) state.r_p

let apply_plan_edit state action =
  let r_p =
    match action with
    | Add_stats_of_exec m -> Expr.stats (Expr.leaf m) :: state.r_p
    | Wrap_stats e -> Expr.stats e :: remove_plan state e
    | Join_exec (m1, m2) -> Expr.join (Expr.leaf m1) (Expr.leaf m2) :: state.r_p
    | Join_planned (e1, e2) ->
      Expr.join e1 e2 :: remove_plan { state with r_p = remove_plan state e1 } e2
    | Join_mixed (m, e) -> Expr.join (Expr.leaf m) e :: remove_plan state e
    | Execute -> invalid_arg "Mdp.apply_plan_edit: Execute is not a plan edit"
  in
  { state with r_p = sort_plans r_p }

let executed_masks e =
  let inner = Expr.strip_stats e in
  let joins = List.map (fun (a, b) -> Relset.union a b) (Expr.join_nodes inner) in
  List.sort_uniq compare (Expr.mask inner :: joins)

(* Only masks whose counts hardened in [stats] become part of R_e: when two
   plans overlap, a node served from an already-materialized result (real
   executor cache, or a count the cost model short-circuited on) was never
   generated. *)
let after_execute state stats =
  let new_masks =
    List.concat_map executed_masks state.r_p
    |> List.filter (fun m ->
           Relset.cardinal m = 1 || Stats_catalog.count stats m <> None)
  in
  { r_p = []; r_e = List.sort_uniq compare (new_masks @ state.r_e); stats }

let state_key state =
  let plans = String.concat ";" (List.map Expr.key state.r_p) in
  let execs = String.concat "," (List.map string_of_int state.r_e) in
  let counts =
    Stats_catalog.counts state.stats
    |> List.sort compare
    |> List.map (fun (m, c) -> Printf.sprintf "%d:%.4g" m c)
    |> String.concat ","
  in
  let dists =
    Stats_catalog.distincts state.stats
    |> List.sort compare
    |> List.map (fun (tm, scope, d) ->
           let s =
             match scope with
             | Stats_catalog.Wildcard -> "*"
             | Stats_catalog.For_pred p -> string_of_int p
             | Stats_catalog.For_select -> "s"
           in
           Printf.sprintf "%d@%s:%.4g" tm s d)
    |> String.concat ","
  in
  (* The version counter disambiguates overwrites that the %.4g renderings
     above collapse (same key, same printed value, different history). *)
  Printf.sprintf "P[%s]E[%s]C[%s]D[%s]V[%d]" plans execs counts dists
    (Stats_catalog.version state.stats)

let describe_mask ctx m =
  Expr.describe ctx.query (Expr.leaf m)

(* The one pretty-printer for actions: every rendering (driver trace,
   flight-recorder events, logs) goes through here. *)
let pp_action ctx fmt action =
  match action with
  | Add_stats_of_exec m ->
    Format.fprintf fmt "plan Σ(%s)" (describe_mask ctx m)
  | Wrap_stats e -> Format.fprintf fmt "wrap Σ(%s)" (Expr.describe ctx.query e)
  | Join_exec (m1, m2) ->
    Format.fprintf fmt "plan %s ⨝ %s" (describe_mask ctx m1)
      (describe_mask ctx m2)
  | Join_planned (e1, e2) ->
    Format.fprintf fmt "combine %s ⨝ %s" (Expr.describe ctx.query e1)
      (Expr.describe ctx.query e2)
  | Join_mixed (m, e) ->
    Format.fprintf fmt "attach %s ⨝ %s" (describe_mask ctx m)
      (Expr.describe ctx.query e)
  | Execute -> Format.pp_print_string fmt "EXECUTE"

let describe_action ctx action = Format.asprintf "%a" (pp_action ctx) action
