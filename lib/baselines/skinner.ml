open Monsoon_util
open Monsoon_relalg
open Monsoon_exec

type config = {
  rng : Rng.t;
  initial_slice : float;
  growth : float;
  exploration : float;
}

let default_config ~rng =
  { rng; initial_slice = 10_000.0; growth = 2.0; exploration = sqrt 2.0 }

type outcome = {
  cost : float;
  timed_out : bool;
  episodes : int;
  result_card : float;
}

(* UCT statistics over left-deep order prefixes. *)
type node = {
  mutable visits : int;
  mutable total : float;
  children : (int, node) Hashtbl.t;
}

let fresh_node () = { visits = 0; total = 0.0; children = Hashtbl.create 4 }

(* Choose the next instance of a left-deep order: prefer connected
   extensions (no needless cross products), pick by UCT among tried ones
   with untried ones first. *)
let choose config q node ~used_mask ~remaining =
  let connected_first =
    let conn = List.filter (fun i -> used_mask = 0 || Query.connected q used_mask (Relset.singleton i)) remaining in
    if conn <> [] then conn else remaining
  in
  let untried =
    List.filter (fun i -> not (Hashtbl.mem node.children i)) connected_first
  in
  match untried with
  | _ :: _ -> List.nth untried (Rng.int config.rng (List.length untried))
  | [] ->
    let score i =
      let c = Hashtbl.find node.children i in
      let mean = c.total /. float_of_int (max 1 c.visits) in
      mean
      +. config.exploration
         *. sqrt (log (float_of_int (max 1 node.visits)) /. float_of_int (max 1 c.visits))
    in
    List.fold_left
      (fun best i ->
        match best with
        | None -> Some i
        | Some b -> if score i > score b then Some i else best)
      None connected_first
    |> Option.get

let left_deep_expr order =
  match order with
  | [] -> invalid_arg "Skinner: empty order"
  | first :: rest ->
    List.fold_left (fun acc i -> Expr.join acc (Expr.base i)) (Expr.base first) rest

let run ?(env = Env.default) config ~budget catalog q =
  let deadline = Env.deadline env in
  let n = Query.n_rels q in
  let root = fresh_node () in
  let total_cost = ref 0.0 in
  let episodes = ref 0 in
  let slice = ref config.initial_slice in
  let result = ref None in
  let overall_exhausted () = !total_cost >= budget in
  (* Episode boundary doubles as the deadline batch boundary: an expired
     token ends the search with a timed-out outcome instead of raising. *)
  while
    !result = None && (not (overall_exhausted ())) && not (Deadline.expired deadline)
  do
    incr episodes;
    (* Descend the prefix tree to pick a full order. *)
    let rec build node used_mask remaining path =
      if remaining = [] then List.rev path
      else begin
        let i = choose config q node ~used_mask ~remaining in
        let child =
          match Hashtbl.find_opt node.children i with
          | Some c -> c
          | None ->
            let c = fresh_node () in
            Hashtbl.replace node.children i c;
            c
        in
        build child (Relset.add i used_mask)
          (List.filter (fun j -> j <> i) remaining)
          ((i, child) :: path)
      end
    in
    let path = build root 0 (List.init n Fun.id) [] in
    let order = List.map fst path in
    let plan = left_deep_expr order in
    (* Fresh executor every episode: a batch engine restarts from scratch,
       discarding all partial work. *)
    let this_slice = Float.min !slice (budget -. !total_cost) in
    let exec = Executor.create ~env catalog q (Executor.budget this_slice) in
    let reward =
      match Executor.execute exec plan with
      | exception (Executor.Timeout | Deadline.Expired) ->
        total_cost := !total_cost +. Executor.total_produced exec;
        (* Progress-based reward: how deep did the pipeline get? *)
        let completed =
          List.length
            (List.filter
               (fun (a, b) ->
                 Executor.materialized exec (Relset.union a b) <> None)
               (Expr.join_nodes plan))
        in
        float_of_int completed /. float_of_int (max 1 (n - 1))
      | _cost ->
        total_cost := !total_cost +. Executor.total_produced exec;
        (match Executor.materialized exec (Query.all_mask q) with
        | Some inter ->
          result := Some (float_of_int (Intermediate.cardinality inter))
        | None -> ());
        1.0 +. (this_slice -. Executor.total_produced exec) /. Float.max 1.0 this_slice
    in
    root.visits <- root.visits + 1;
    List.iter
      (fun (_, node) ->
        node.visits <- node.visits + 1;
        node.total <- node.total +. reward)
      path;
    slice := !slice *. config.growth
  done;
  match !result with
  | Some card ->
    { cost = !total_cost; timed_out = false; episodes = !episodes; result_card = card }
  | None -> { cost = budget; timed_out = true; episodes = !episodes; result_card = 0.0 }
