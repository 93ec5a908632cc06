open Monsoon_util

type ('s, 'a) problem = {
  actions : 's -> 'a list;
  step : 's -> 'a -> 's * float * bool;
  is_terminal : 's -> bool;
  key : 's -> string;
  rollout_policy : (Rng.t -> 's -> unit -> 'a option) option;
}

type selection = Uct of float | Epsilon_greedy

type config = {
  iterations : int;
  selection : selection;
  rng : Rng.t;
  max_rollout_steps : int;
  deadline : Deadline.t;
}

let default_config ~rng =
  { iterations = 2000;
    selection = Uct (sqrt 2.0);
    rng;
    max_rollout_steps = 10_000;
    deadline = Deadline.none }

type 'a candidate = { cand_action : 'a; cand_visits : int; cand_mean : float }

type 'a stats = {
  chosen_visits : int;
  chosen_mean : float;
  root_visits : int;
  candidates : 'a candidate list;
}

(* A node lists its legal actions the first time a simulation reaches it
   ([listed]); most expanded leaves are never revisited, and listing draws
   no random numbers, so listing late is invisible to the search. *)
type ('s, 'a) node = {
  state : 's;
  mutable listed : bool;
  mutable untried : 'a list;
  mutable edges : ('s, 'a) edge list;  (* in expansion order *)
  mutable visits : int;
}

and ('s, 'a) edge = {
  action : 'a;
  mutable e_visits : int;
  mutable e_total : float;  (* sum of raw returns through this edge *)
  next : ('s, 'a) next;
}

(* Where an edge leads. A deterministic edge keeps its one child and its
   reward: stepping again would give the same key and reward. A stochastic
   edge's children live in the search's child table under the edge's id
   and the sampled state's key. *)
and ('s, 'a) next = Fixed of ('s, 'a) node * float | Sampled of int

module Children = Hashtbl.Make (struct
  type t = int * string

  let equal ((e : int), k) (e', k') = e = e' && String.equal k k'
  let hash = Hashtbl.hash
end)

let make_node state = { state; listed = false; untried = []; edges = []; visits = 0 }

let edge_mean e = if e.e_visits = 0 then 0.0 else e.e_total /. float_of_int e.e_visits

(* Rollout: actions until a terminal state; the return is the
   (undiscounted, γ = 1) sum of rewards. The policy's pre-choice comes
   first; only when it declines are the actions listed, and one is taken
   uniformly at random. *)
let rollout cfg p state =
  let pre_choice =
    match p.rollout_policy with
    | Some policy -> policy cfg.rng
    | None -> fun _state () -> None
  in
  let rec go state steps acc =
    if p.is_terminal state || steps >= cfg.max_rollout_steps then acc
    else
      match pre_choice state () with
      | Some a -> take state steps acc a
      | None -> (
        match p.actions state with
        | [] -> acc
        | acts -> take state steps acc (List.nth acts (Rng.int cfg.rng (List.length acts))))
  and take state steps acc a =
    let state', r, _ = p.step state a in
    go state' (steps + 1) (acc +. r)
  in
  go state 0 0.0

let select_uct w ~norm node =
  let log_vp = log (float_of_int (max 1 node.visits)) in
  let score e =
    if e.e_visits = 0 then infinity
    else
      norm (edge_mean e) +. (w *. sqrt (log_vp /. float_of_int e.e_visits))
  in
  (* The first edge with the highest score, scoring each edge once. *)
  let rec best e se = function
    | [] -> e
    | e' :: rest ->
      let se' = score e' in
      if se' > se then best e' se' rest else best e se rest
  in
  match node.edges with
  | e :: rest -> best e (score e) rest
  | [] -> invalid_arg "Mcts.select_uct: no edges"

let select_eps cfg ~progress node =
  let eps = Float.max 0.1 (1.0 -. progress) in
  if Rng.unit_float cfg.rng < eps then
    List.nth node.edges (Rng.int cfg.rng (List.length node.edges))
  else
    List.fold_left
      (fun best e -> match best with
        | None -> Some e
        | Some b -> if edge_mean e > edge_mean b then Some e else best)
      None node.edges
    |> Option.get

(* One complete tree search: up to [cfg.iterations] simulations from a
   fresh root. Returns the root node and the counts of iterations run,
   expansions and transpositions. [observe_depth] receives the deepest tree
   level of each iteration. *)
let search cfg p root_state ~observe_depth =
  let root = make_node root_state in
  (* Children of every stochastic edge of this search, by (edge id, key). *)
  let children = Children.create 64 in
  let sampled_edges = ref 0 in
  let iterations = ref 0 in
  let expansions = ref 0 in
  let transpositions = ref 0 in
  let depth_reached = ref 0 in
  (* Global return bounds for [0,1] normalization of the exploitation
     term, as the paper prescribes. *)
  let gmin = ref infinity and gmax = ref neg_infinity in
  let observe g =
    if g < !gmin then gmin := g;
    if g > !gmax then gmax := g
  in
  let norm v =
    if !gmax -. !gmin < 1e-12 then 0.5 else (v -. !gmin) /. (!gmax -. !gmin)
  in
  let sampled_child id state' =
    let k = (id, p.key state') in
    match Children.find_opt children k with
    | Some n ->
      (* Transposition: a stochastic step reproduced an already-expanded
         state under this edge, so its subtree statistics are shared. *)
      incr transpositions;
      n
    | None ->
      let n = make_node state' in
      Children.add children k n;
      n
  in
  let backup node edge g =
    node.visits <- node.visits + 1;
    edge.e_visits <- edge.e_visits + 1;
    edge.e_total <- edge.e_total +. g
  in
  let rec simulate ~progress node depth =
    if depth > !depth_reached then depth_reached := depth;
    if p.is_terminal node.state || depth >= cfg.max_rollout_steps then 0.0
    else begin
      if not node.listed then begin
        node.untried <- p.actions node.state;
        node.listed <- true
      end;
      match node.untried with
      | a :: rest ->
        (* Expansion: try one unvisited action, then roll out. *)
        node.untried <- rest;
        incr expansions;
        let state', r, deterministic = p.step node.state a in
        let child = make_node state' in
        let next =
          if deterministic then Fixed (child, r)
          else begin
            let id = !sampled_edges in
            incr sampled_edges;
            Children.add children (id, p.key state') child;
            Sampled id
          end
        in
        let edge = { action = a; e_visits = 0; e_total = 0.0; next } in
        node.edges <- node.edges @ [ edge ];
        let g = r +. rollout cfg p state' in
        backup node edge g;
        g
      | [] ->
        if node.edges = [] then 0.0  (* dead end: no legal actions *)
        else begin
          let edge =
            match cfg.selection with
            | Uct w -> select_uct w ~norm node
            | Epsilon_greedy -> select_eps cfg ~progress node
          in
          let g =
            match edge.next with
            | Fixed (child, r) ->
              (* Stepping again would reproduce this child: the same
                 transposition a key lookup would find. *)
              incr transpositions;
              r +. simulate ~progress child (depth + 1)
            | Sampled id ->
              let state', r, _ = p.step node.state edge.action in
              r +. simulate ~progress (sampled_child id state') (depth + 1)
          in
          backup node edge g;
          g
        end
    end
  in
  (* An expiring deadline ends the search between iterations instead of
     raising: the partial tree is still a valid (if weaker) plan. *)
  (try
     for i = 0 to cfg.iterations - 1 do
       if Deadline.expired cfg.deadline then raise Exit;
       let progress = float_of_int i /. float_of_int (max 1 cfg.iterations) in
       depth_reached := 0;
       let g = simulate ~progress root 0 in
       observe_depth (float_of_int !depth_reached);
       observe g;
       incr iterations
     done
   with Exit -> ());
  (root, !iterations, !expansions, !transpositions)

let plan ?(env = Env.default) cfg p root_state =
  if p.is_terminal root_state then None
  else begin
    let tel = Monsoon_telemetry.Ctx.of_env env in
    let open Monsoon_telemetry in
    let c_plans = Ctx.counter tel "mcts.plans" in
    let c_iterations = Ctx.counter tel "mcts.iterations" in
    let c_expansions = Ctx.counter tel "mcts.expansions" in
    let c_transpositions = Ctx.counter tel "mcts.transpositions" in
    let h_depth = Ctx.histogram tel "mcts.tree_depth" in
    let observe_depth d = Metric.Histogram.observe h_depth d in
    Ctx.with_span tel "mcts.plan" (fun span ->
    let root, iterations, expansions, transpositions =
      search cfg p root_state ~observe_depth
    in
    Metric.Counter.inc c_plans;
    Metric.Counter.add c_iterations (float_of_int iterations);
    Metric.Counter.add c_expansions (float_of_int expansions);
    Metric.Counter.add c_transpositions (float_of_int transpositions);
    Span.set_attr span "iterations" (Span.Int iterations);
    Span.set_attr span "expansions" (Span.Int expansions);
    Span.set_attr span "transpositions" (Span.Int transpositions);
    Span.set_attr span "root_visits" (Span.Int root.visits);
    (* Final choice: best mean return; ties broken toward more visits. *)
    let best =
      List.fold_left
        (fun best e ->
          match best with
          | None -> Some e
          | Some b ->
            let me = edge_mean e and mb = edge_mean b in
            if me > mb || (Float.equal me mb && e.e_visits > b.e_visits) then
              Some e
            else best)
        None root.edges
    in
    match best with
    | None -> None
    | Some e ->
      Span.set_attr span "chosen_visits" (Span.Int e.e_visits);
      Span.set_attr span "chosen_mean" (Span.Float (edge_mean e));
      let candidates =
        List.map
          (fun e ->
            { cand_action = e.action;
              cand_visits = e.e_visits;
              cand_mean = edge_mean e })
          root.edges
      in
      Some
        ( e.action,
          { chosen_visits = e.e_visits;
            chosen_mean = edge_mean e;
            root_visits = root.visits;
            candidates } ))
  end
