type env = {
  count_of : Relset.t -> float option;
  raw_count : int -> float;
  distinct_of :
    term:Term.t -> pred:int option -> c_own:float -> c_partner:float option -> float;
  record_count : Relset.t -> float -> unit;
}

let clamp_distinct ~c_own d = Float.max 1.0 (Float.min d (Float.max 1.0 c_own))

let join_selectivity ~d1 ~d2 = 1.0 /. Float.max 1.0 (Float.max d1 d2)

(* Distinct count of [tm] in the context of predicate [pred], asking the
   environment and clamping to the spanning expression's cardinality. *)
let distinct env ~tm ~pred ~c_own ~c_partner =
  clamp_distinct ~c_own (env.distinct_of ~term:tm ~pred ~c_own ~c_partner)

let select_selectivity q env ~pid ~c_own =
  match Query.pred q pid with
  | Predicate.Select { term = tm; _ } ->
    let d = distinct env ~tm ~pred:None ~c_own ~c_partner:None in
    1.0 /. d
  | Predicate.Join _ -> assert false

(* Selectivity of join predicate [pid] at a node whose sides have masks and
   cardinalities [(lm, lc)] and [(rm, rc)]. Falls back to treating the
   predicate as a filter with selectivity 1/max(d,d) over the smaller side
   when its terms straddle the two children (it is then applied post-join,
   but the size effect is modeled identically). *)
let join_pred_selectivity q env ~pid ~lm ~lc ~rm ~rc =
  match Query.pred q pid with
  | Predicate.Join { left; right; _ } ->
    let orient tl tr =
      let d1 = distinct env ~tm:tl ~pred:(Some pid) ~c_own:lc ~c_partner:(Some rc) in
      let d2 = distinct env ~tm:tr ~pred:(Some pid) ~c_own:rc ~c_partner:(Some lc) in
      join_selectivity ~d1 ~d2
    in
    let lt = Query.join_left_mask q pid and rt = Query.join_right_mask q pid in
    if Relset.subset lt lm && Relset.subset rt rm then orient left right
    else if Relset.subset rt lm && Relset.subset lt rm then orient right left
    else begin
      (* Straddling predicate: usable only as a post-join filter. *)
      let c_own = lc *. rc in
      let d1 = distinct env ~tm:left ~pred:(Some pid) ~c_own ~c_partner:None in
      let d2 = distinct env ~tm:right ~pred:(Some pid) ~c_own ~c_partner:None in
      join_selectivity ~d1 ~d2
    end
  | Predicate.Select { term = tm; _ } ->
    let d = distinct env ~tm ~pred:None ~c_own:(lc *. rc) ~c_partner:None in
    1.0 /. d

let rec estimate q env expr =
  match expr with
  | Expr.Stats { inner; _ } -> estimate q env inner
  | Expr.Leaf { mask; _ } | Expr.Join { mask; _ } -> (
    (* "Step 1": a count already in S short-circuits generation. *)
    match env.count_of mask with
    | Some c -> c
    | None -> estimate_fresh q env expr)

and estimate_fresh q env expr =
  match expr with
  | Expr.Stats _ -> assert false
  | Expr.Leaf { mask = m; _ } ->
    if m land (m - 1) = 0 then begin
      (* Unexecuted base instance: raw size reduced by pushed-down
         selections. *)
      let i = Relset.min_elt m in
      let raw = env.raw_count i in
      let c =
        List.fold_left
          (fun c pid -> c *. select_selectivity q env ~pid ~c_own:raw)
          raw
          (Query.select_preds_of_rel q i)
      in
      env.record_count m c;
      c
    end
    else
      (* A multi-instance leaf always refers to a materialized intermediate,
         whose count must be known. *)
      invalid_arg "Cost_model.estimate: unmaterialized intermediate leaf"
  | Expr.Join { left = a; right = b; mask; _ } ->
    let lc = estimate q env a and rc = estimate q env b in
    let lm = Expr.mask a and rm = Expr.mask b in
    let c = ref (lc *. rc) in
    (* The newly evaluable predicates in id order: join predicates first,
       then multi-instance selections, which apply after them. *)
    for pid = 0 to Query.n_preds q - 1 do
      if Query.is_join_pred q pid && Query.becomes_evaluable q pid ~left:lm ~right:rm
      then c := !c *. join_pred_selectivity q env ~pid ~lm ~lc ~rm ~rc
    done;
    for pid = 0 to Query.n_preds q - 1 do
      if
        (not (Query.is_join_pred q pid))
        && Query.becomes_evaluable q pid ~left:lm ~right:rm
      then c := !c *. select_selectivity q env ~pid ~c_own:!c
    done;
    let c = !c in
    env.record_count mask c;
    c

let cost q env expr =
  let full = Query.all_mask q in
  let rec node_cost ~is_root e =
    match e with
    | Expr.Leaf _ -> 0.0
    | Expr.Stats { inner; _ } ->
      (* Materialize the inner expression, then one extra pass for Σ. *)
      let c = estimate q env inner in
      c +. node_cost ~is_root inner
    | Expr.Join { left = a; right = b; mask; _ } ->
      let c = estimate q env e in
      let self =
        (* The complete query's final result is not charged (the paper
           excludes the cost of writing the final result). *)
        if is_root && Relset.equal mask full then 0.0 else c
      in
      self +. node_cost ~is_root:false a +. node_cost ~is_root:false b
  in
  node_cost ~is_root:true expr
