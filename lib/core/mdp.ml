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

(* R_e contents as a table key: the ascending mask list, compared and
   hashed over every mask ([Hashtbl.hash] stops after ten). *)
module Masks = Hashtbl.Make (struct
  type t = Relset.t list

  let rec equal (a : t) (b : t) =
    match (a, b) with
    | [], [] -> true
    | x :: a, y :: b -> x = y && equal a b
    | _ -> false

  let hash (l : t) = List.fold_left (fun h m -> (h * 31) + m) 0 l
end)

(* A pair of R_e masks that a Join_exec could join: m1 before m2 in R_e,
   disjoint, their union not in R_e. Nothing here depends on R_p. *)
type exec_pair = { m1 : Relset.t; m2 : Relset.t; union : Relset.t; connected : bool }

(* Per R_e contents, its exec pairs in enumeration order. *)
type r_e_pairs = exec_pair array Masks.t

type ctx = { query : Query.t; raw_counts : float array; r_e_pairs : r_e_pairs }

let ctx_of_sizes query raw_counts = { query; raw_counts; r_e_pairs = Masks.create 64 }

let make_ctx catalog query =
  ctx_of_sizes query
    (Array.map
       (fun r -> float_of_int (Table.cardinality (Catalog.find catalog r.Query.table)))
       (Query.rels query))

let init_state ctx =
  { r_p = [];
    r_e = List.init (Query.n_rels ctx.query) Relset.singleton;
    stats = Stats_catalog.create () }

(* Masks are ints: these monomorphic walks keep the planner's hot path off
   polymorphic comparison and free of closures. Membership in R_e, which
   is sorted ascending: *)
let rec mem_mask (m : Relset.t) = function
  | [] -> false
  | x :: rest -> x = m || (x < m && mem_mask m rest)

let is_terminal ctx state = mem_mask (Query.all_mask ctx.query) state.r_e

let sort_plans plans = List.sort_uniq Expr.compare plans

(* Does R_p already contain a plan covering (at least) this mask? Used to
   avoid planning redundant work. *)
let rec covered_in_rp mask = function
  | [] -> false
  | e :: rest -> mask land Expr.mask e = mask || covered_in_rp mask rest

(* Is there a plan in R_p other than [c1] and [c2] with exactly this mask? *)
let rec duplicated union c1 c2 = function
  | [] -> false
  | e :: rest -> (e != c1 && e != c2 && Expr.mask e = union) || duplicated union c1 c2 rest

(* Is there a Σ-topped plan over exactly this mask? *)
let rec sigma_planned m = function
  | [] -> false
  | e :: rest -> (Expr.has_stats e && Expr.mask e = m) || sigma_planned m rest

(* Σ over an expression is useful only when it would measure a statistic
   not yet known: these are the masks of the interesting terms without a
   measurement, and Σ over [mask] is useful when one of them fits in it. *)
let unmeasured q stats =
  let acc = ref [] in
  for k = Query.n_interesting q - 1 downto 0 do
    if not (Stats_catalog.has_measurement stats ~term:(Query.interesting_id q k)) then
      acc := Query.interesting_mask q k :: !acc
  done;
  !acc

let rec stats_useful mask = function
  | [] -> false
  | tm :: rest -> tm land mask = tm || stats_useful mask rest

(* R_e's exec pairs, computed once per R_e contents and run. The union of
   two disjoint masks exceeds both, so it can only occur after [m2] in the
   sorted R_e. *)
let exec_pairs ctx r_e =
  match Masks.find_opt ctx.r_e_pairs r_e with
  | Some pairs -> pairs
  | None ->
    let acc = ref [] in
    let rec with_m1 m1 = function
      | [] -> ()
      | m2 :: later ->
        let union = m1 lor m2 in
        if m1 land m2 = 0 && not (mem_mask union later) then
          acc := { m1; m2; union; connected = Query.connected ctx.query m1 m2 } :: !acc;
        with_m1 m1 later
    in
    let rec all = function
      | [] -> ()
      | m1 :: rest ->
        with_m1 m1 rest;
        all rest
    in
    all r_e;
    let pairs = Array.of_list (List.rev !acc) in
    Masks.add ctx.r_e_pairs r_e pairs;
    pairs

(* A Join_exec is offered when R_p covers no plan over its union. *)
let offered r_p p = not (covered_in_rp p.union r_p)

(* The action list is RNG-visible: rollouts and ε-greedy selection index
   into it, so its elements and their order are part of the planner's
   behaviour. Join candidates are enumerated as (R_e pairs, R_p pairs,
   R_e × R_p) and offered newest first. *)
let legal_actions ctx state =
  let q = ctx.query and r_e = state.r_e and r_p = state.r_p in
  let planned_joinable = List.filter (fun e -> not (Expr.has_stats e)) r_p in
  (* Plan-sprawl cap: with two pending plans, only plan-modifying moves and
     EXECUTE are offered — materializing large sets of speculative
     subplans in one step is never useful and bloats the search space. *)
  let capped = match r_p with _ :: _ :: _ -> true | [] | [ _ ] -> false in
  (* Join candidates, newest first: the connected ones, and the others
     for as long as no connected one has turned up. *)
  let conn = ref [] and loose = ref [] in
  let candidate action connected =
    if connected then conn := action :: !conn
    else match !conn with [] -> loose := action :: !loose | _ :: _ -> ()
  in
  (* A join plan whose result already exists (mask in R_e) or duplicates
     another plan's coverage is pointless — and executing duplicates would
     leave inner nodes unmaterialized behind the result cache. *)
  let union_useful c1 c2 union =
    (not (mem_mask union r_e)) && not (duplicated union c1 c2 r_p)
  in
  if not capped then
    Array.iter
      (fun p -> if offered r_p p then candidate (Join_exec (p.m1, p.m2)) p.connected)
      (exec_pairs ctx r_e);
  let rec plan_pairs = function
    | [] -> ()
    | e1 :: rest ->
      let m1 = Expr.mask e1 in
      List.iter
        (fun e2 ->
          let m2 = Expr.mask e2 in
          if m1 land m2 = 0 && union_useful e1 e2 (m1 lor m2) then
            candidate (Join_planned (e1, e2)) (Query.connected q m1 m2))
        rest;
      plan_pairs rest
  in
  plan_pairs planned_joinable;
  List.iter
    (fun m ->
      List.iter
        (fun e ->
          let me = Expr.mask e in
          if m land me = 0 && union_useful e e (m lor me) then
            candidate (Join_mixed (m, e)) (Query.connected q m me))
        planned_joinable)
    r_e;
  let unmeasured = unmeasured q state.stats in
  let joins =
    match !conn with
    | _ :: _ as connected -> connected
    | [] ->
      (* Under the cap a Join_exec candidate is never offered; its
         connectivity matters only when no offered candidate is connected. *)
      let exec_connected p = p.connected && offered r_p p in
      if capped && Array.exists exec_connected (exec_pairs ctx r_e) then [] else !loose
  in
  (* Then Σ over executed results, Σ over pending plans and EXECUTE, built
     back to front. *)
  let tail = match r_p with [] -> [] | _ :: _ -> [ Execute ] in
  let tail =
    List.fold_right
      (fun e acc ->
        if stats_useful (Expr.mask e) unmeasured then Wrap_stats e :: acc else acc)
      planned_joinable tail
  in
  let tail =
    if capped then tail
    else
      List.fold_right
        (fun m acc ->
          if stats_useful m unmeasured && not (sigma_planned m r_p) then
            Add_stats_of_exec m :: acc
          else acc)
        r_e tail
  in
  joins @ tail

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

(* Folds [f] over the masks executing a plan adds to R_e: its (Σ-stripped)
   root and every join node, duplicates included. *)
let fold_executed f e acc =
  let rec joins e acc =
    match e with
    | Expr.Join { left; right; mask; _ } -> joins right (joins left (f acc mask))
    | Expr.Leaf _ -> acc
    | Expr.Stats { inner; _ } -> joins inner acc
  in
  let inner = Expr.strip_stats e in
  joins inner (f acc (Expr.mask inner))

let executed_masks e =
  List.sort_uniq Int.compare (fold_executed (fun acc m -> m :: acc) e [])

(* Insert into an ascending, duplicate-free mask list, keeping it so; a
   mask already present leaves the list as it is. *)
let rec insert_mask (m : Relset.t) = function
  | [] -> [ m ]
  | x :: rest as l -> if m < x then m :: l else if m = x then l else x :: insert_mask m rest

(* Only masks whose counts hardened in [stats] become part of R_e: when two
   plans overlap, a node served from an already-materialized result (real
   executor cache, or a count the cost model short-circuited on) was never
   generated. *)
let after_execute state stats =
  let hardened m =
    m land (m - 1) = 0
    || match Stats_catalog.count stats m with Some _ -> true | None -> false
  in
  let add r_e m = if hardened m then insert_mask m r_e else r_e in
  { r_p = [];
    r_e = List.fold_left (fun r_e e -> fold_executed add e r_e) state.r_e state.r_p;
    stats }

(* The exact bytes of the state, every section length-prefixed: the
   number of plans and each plan's [Expr.key] after its length, the number
   of R_e masks and each mask, then the statistics' fingerprint. Ints are
   8 little-endian bytes. *)
let state_key state =
  let b = Buffer.create 256 in
  let add_int i = Buffer.add_int64_le b (Int64.of_int i) in
  add_int (List.length state.r_p);
  List.iter
    (fun e ->
      let k = Expr.key e in
      add_int (String.length k);
      Buffer.add_string b k)
    state.r_p;
  add_int (List.length state.r_e);
  List.iter add_int state.r_e;
  Buffer.add_string b (Stats_catalog.fingerprint state.stats);
  Buffer.contents b

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
