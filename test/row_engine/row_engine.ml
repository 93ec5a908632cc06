(* The frozen pre-columnar executor: one tuple at a time over boxed
   [Value.t] rows. This module is NOT part of the execution path — it
   lives beside the tests, and no library calls it. It exists as the
   reference implementation the differential suite ([test_differential])
   and the bench speedup kernels pin [Monsoon_exec.Executor] against:
   identical cost accounting, identical stat_obs, identical fault/deadline
   checkpoints, row at a time. Do not "improve" it; its value is that it
   stays exactly what the columnar engine must reproduce. *)

open Monsoon_util
open Monsoon_storage
open Monsoon_relalg
open Monsoon_sketch
open Monsoon_telemetry

(* The boxed intermediate layout this engine was written against (the
   executor's intermediates hold row ids instead): a tuple is the
   concatenation of one full base row per covered instance, laid out in
   the order recorded in [offsets], left input first. *)
module Intermediate = struct
  type t = {
    mask : Relset.t;
    offsets : int array;  (* indexed by instance id; -1 when absent *)
    width : int;
    rows : Table.row array;
  }

  let of_base q catalog ~rows rel =
    let table = Catalog.find catalog (Query.rel_by_id q rel).Query.table in
    let offsets = Array.make (Query.n_rels q) (-1) in
    offsets.(rel) <- 0;
    { mask = Relset.singleton rel;
      offsets;
      width = Schema.arity (Table.schema table);
      rows }

  let cardinality t = Array.length t.rows

  let col_index q catalog t ~rel ~col =
    if t.offsets.(rel) < 0 then
      invalid_arg
        (Printf.sprintf "Intermediate.col_index: instance %d absent" rel);
    let table = Catalog.find catalog (Query.rel_by_id q rel).Query.table in
    t.offsets.(rel) + Schema.index_of (Table.schema table) col

  let combined_layout a b =
    assert (Relset.disjoint a.mask b.mask);
    let n = Array.length a.offsets in
    let offsets = Array.make n (-1) in
    for i = 0 to n - 1 do
      if a.offsets.(i) >= 0 then offsets.(i) <- a.offsets.(i)
      else if b.offsets.(i) >= 0 then offsets.(i) <- a.width + b.offsets.(i)
    done;
    (Relset.union a.mask b.mask, offsets, a.width + b.width)
end

exception Timeout

type budget = { mutable remaining : float }

let budget r = { remaining = r }

(* Per-operator tuple counters, resolved once per execution context so the
   hot paths pay one float store per event. *)
type counters = {
  m_scanned : Metric.Counter.t;  (* base-table rows read *)
  m_built : Metric.Counter.t;  (* rows inserted into hash-join build tables *)
  m_probed : Metric.Counter.t;  (* rows driven through hash-join probes *)
  m_emitted : Metric.Counter.t;  (* join / cross-product output rows *)
  m_sigma : Metric.Counter.t;  (* objects processed by Σ passes *)
  m_budget : Metric.Counter.t;  (* budget consumed *)
  m_fault : Metric.Counter.t;  (* injected faults that escaped [execute] *)
}

type t = {
  catalog : Catalog.t;
  query : Query.t;
  mutable bud : budget;
  store : (Relset.t, Intermediate.t) Hashtbl.t;
  mutable produced : float;
  mutable sigma_total : float;
  fault : Fault.t;
  deadline : Deadline.t;
  tel : Ctx.t;
  m : counters;
}

let create ?(env = Env.default) catalog query bud =
  let fault = Env.fault env and deadline = Env.deadline env in
  let tel = Ctx.of_env env in
  let m =
    { m_scanned = Ctx.counter tel "exec.tuples_scanned";
      m_built = Ctx.counter tel "exec.tuples_built";
      m_probed = Ctx.counter tel "exec.tuples_probed";
      m_emitted = Ctx.counter tel "exec.tuples_emitted";
      m_sigma = Ctx.counter tel "exec.sigma_objects";
      m_budget = Ctx.counter tel "exec.budget_spent";
      m_fault = Ctx.counter tel "fault.injected" }
  in
  { catalog;
    query;
    bud;
    store = Hashtbl.create 16;
    produced = 0.0;
    sigma_total = 0.0;
    fault;
    deadline;
    tel;
    m }

let set_budget t bud = t.bud <- bud

type stat_obs = {
  obs_counts : (Relset.t * float) list;
  obs_distincts : (int * float) list;
  obs_stats_cost : float;
  obs_nodes : (Expr.t * float) list;
}

let total_produced t = t.produced

let sigma_objects t = t.sigma_total

let spend t n =
  t.produced <- t.produced +. n;
  Metric.Counter.add t.m.m_budget n;
  t.bud.remaining <- t.bud.remaining -. n;
  if t.bud.remaining < 0.0 then raise Timeout

let compile_term t inter tm =
  Term.compile tm
    ~col_index:(fun ~rel ~col ->
      Intermediate.col_index t.query t.catalog inter ~rel ~col)

(* Fault checkpoints, all at an operator's entry: one udf draw per opaque
   term of [pids], each predicate's terms in declared order. *)
let draw_udfs t pids =
  List.iter
    (fun pid ->
      List.iter
        (fun tm -> if not (Udf.is_identity tm.Term.udf) then Fault.udf t.fault)
        (Predicate.terms (Query.pred t.query pid)))
    pids

(* Predicate checkers over a single intermediate's rows. *)
let compile_filter t inter pid =
  match Query.pred t.query pid with
  | Predicate.Select { term = tm; value; _ } ->
    let ev = compile_term t inter tm in
    fun row -> Value.equal (ev row) value
  | Predicate.Join { left; right; _ } ->
    let evl = compile_term t inter left and evr = compile_term t inter right in
    fun row -> Value.equal (evl row) (evr row)

let scan_base t rel =
  let mask = Relset.singleton rel in
  match Hashtbl.find_opt t.store mask with
  | Some inter -> inter
  | None ->
    let pids = Query.select_preds_of_rel t.query rel in
    Fault.row t.fault;
    draw_udfs t pids;
    let table = Catalog.find t.catalog (Query.rel_by_id t.query rel).Query.table in
    let raw = Table.rows table in
    Metric.Counter.add t.m.m_scanned (float_of_int (Array.length raw));
    let inter0 = Intermediate.of_base t.query t.catalog ~rows:raw rel in
    let filters = List.map (compile_filter t inter0) pids in
    let inter =
      if filters = [] then inter0
      else begin
        let keep = List.fold_left (fun acc f row -> acc row && f row) (fun _ -> true) filters in
        let rows =
          Array.of_seq (Seq.filter keep (Array.to_seq raw))
        in
        spend t (float_of_int (Array.length rows));
        Intermediate.of_base t.query t.catalog ~rows rel
      end
    in
    Hashtbl.replace t.store mask inter;
    inter

(* Orientation of a connecting join predicate: which term keys which side. *)
let orient_pred t lm pid =
  match Query.pred t.query pid with
  | Predicate.Join { left; right; _ } ->
    if Relset.subset (Term.rels left) lm then (left, right) else (right, left)
  | Predicate.Select _ -> assert false

let hash_join t (la : Intermediate.t) (rb : Intermediate.t) =
  let q = t.query in
  let conn = Query.connecting q la.Intermediate.mask rb.Intermediate.mask in
  let newly = Query.newly_evaluable q ~left:la.Intermediate.mask ~right:rb.Intermediate.mask in
  let filter_pids = List.filter (fun p -> not (List.mem p conn)) newly in
  draw_udfs t conn;
  draw_udfs t filter_pids;
  if conn <> [] then Fault.build t.fault;
  let mask, offsets, width = Intermediate.combined_layout la rb in
  let out = ref [] in
  let n_out = ref 0 in
  let emit lrow rrow =
    let row = Array.make width Value.Null in
    Array.blit lrow 0 row 0 la.Intermediate.width;
    Array.blit rrow 0 row la.Intermediate.width rb.Intermediate.width;
    row
  in
  (* Filters run on the combined layout; build a template intermediate to
     compile them against. *)
  let combined_proto =
    { Intermediate.mask; offsets; width; rows = [||] }
  in
  let filters = List.map (compile_filter t combined_proto) filter_pids in
  let accept row = List.for_all (fun f -> f row) filters in
  if conn = [] then begin
    (* Cross product (with any straddling filters). *)
    Metric.Counter.add t.m.m_probed
      (float_of_int (Intermediate.cardinality la));
    Array.iter
      (fun lrow ->
        Array.iter
          (fun rrow ->
            let row = emit lrow rrow in
            if accept row then begin
              spend t 1.0;
              Metric.Counter.inc t.m.m_emitted;
              incr n_out;
              out := row :: !out
            end)
          rb.Intermediate.rows)
      la.Intermediate.rows
  end
  else begin
    (* Hash join on the composite key of all connecting predicates. Build on
       the smaller input. *)
    let build, probe, build_is_left =
      if Intermediate.cardinality la <= Intermediate.cardinality rb then
        (la, rb, true)
      else (rb, la, false)
    in
    let build_mask = build.Intermediate.mask in
    let keyers_build, keyers_probe =
      List.split
        (List.map
           (fun pid ->
             let bt, pt = orient_pred t build_mask pid in
             (compile_term t build bt, compile_term t probe pt))
           conn)
    in
    let key_of keyers row = List.map (fun k -> k row) keyers in
    Metric.Counter.add t.m.m_built
      (float_of_int (Intermediate.cardinality build));
    Metric.Counter.add t.m.m_probed
      (float_of_int (Intermediate.cardinality probe));
    let table = Hashtbl.create (Intermediate.cardinality build * 2) in
    Array.iter
      (fun row -> Hashtbl.add table (key_of keyers_build row) row)
      build.Intermediate.rows;
    Array.iter
      (fun prow ->
        let k = key_of keyers_probe prow in
        List.iter
          (fun brow ->
            let row =
              if build_is_left then emit brow prow else emit prow brow
            in
            if accept row then begin
              spend t 1.0;
              Metric.Counter.inc t.m.m_emitted;
              incr n_out;
              out := row :: !out
            end)
          (Hashtbl.find_all table k))
      probe.Intermediate.rows
  end;

  let rows = Array.of_list (List.rev !out) in
  { Intermediate.mask; offsets; width; rows }

let stats_pass t (inter : Intermediate.t) =
  (* One extra pass over the materialized input computes an HLL distinct
     count for every predicate-relevant term it can evaluate. *)
  let card = Intermediate.cardinality inter in
  Ctx.with_span t.tel "exec.sigma"
    ~attrs:[ ("objects", Span.Int card) ]
    (fun _ ->
      let terms = Query.interesting_terms t.query inter.Intermediate.mask in
      List.iter
        (fun tm -> if not (Udf.is_identity tm.Term.udf) then Fault.udf t.fault)
        terms;
      spend t (float_of_int card);
      Metric.Counter.add t.m.m_sigma (float_of_int card);
      t.sigma_total <- t.sigma_total +. float_of_int card;
      List.map
        (fun tm ->
          let ev = compile_term t inter tm in
          let hll = Hyperloglog.create ~p:14 () in
          Array.iter
            (fun row -> Hyperloglog.add_hash hll (Value.hash (ev row)))
            inter.Intermediate.rows;
          (tm.Term.id, Float.max 1.0 (Float.round (Hyperloglog.count hll))))
        terms)

let execute t expr =
  Ctx.with_span t.tel "exec.execute" (fun span ->
  let cost = ref 0.0 in
  let stats_cost = ref 0.0 in
  let obs_counts = ref [] in
  let obs_distincts = ref [] in
  let obs_nodes = ref [] in
  let full = Query.all_mask t.query in
  let record e mask inter =
    Hashtbl.replace t.store mask inter;
    let c = float_of_int (Intermediate.cardinality inter) in
    obs_counts := (mask, c) :: !obs_counts;
    obs_nodes := (e, c) :: !obs_nodes
  in
  let rec go ~is_root e : Intermediate.t =
    (* Batch boundary: one cooperative deadline check per plan node. *)
    Deadline.check t.deadline;
    match e with
    | Expr.Stats { inner; _ } ->
      let inter = go ~is_root inner in
      let ds = stats_pass t inter in
      cost := !cost +. float_of_int (Intermediate.cardinality inter);
      stats_cost := !stats_cost +. float_of_int (Intermediate.cardinality inter);
      obs_distincts := ds @ !obs_distincts;
      inter
    | Expr.Leaf { mask = m; _ } -> (
      match Hashtbl.find_opt t.store m with
      | Some inter -> inter
      | None -> (
        match Relset.to_list m with
        | [ i ] ->
          let inter = scan_base t i in
          let c = float_of_int (Intermediate.cardinality inter) in
          obs_counts := (m, c) :: !obs_counts;
          obs_nodes := (e, c) :: !obs_nodes;
          inter
        | _ -> invalid_arg "Executor.execute: unmaterialized intermediate leaf"))
    | Expr.Join { left = a; right = b; mask = m; _ } -> (
      match Hashtbl.find_opt t.store m with
      | Some inter -> inter
      | None ->
        let ia = go ~is_root:false a in
        let ib = go ~is_root:false b in
        let inter = hash_join t ia ib in
        let c = float_of_int (Intermediate.cardinality inter) in
        (* Final result of the complete query is not charged as cost. *)
        if not (is_root && Relset.equal m full) then cost := !cost +. c;
        record e m inter;
        inter)
  in
  (* Attributes reflect whatever was charged, even when the budget runs
     out mid-plan — the trace then shows where the run died. *)
  let close_attrs () =
    Span.set_attr span "objects" (Span.Float !cost);
    Span.set_attr span "sigma_objects" (Span.Float !stats_cost)
  in
  match go ~is_root:true expr with
  | _ ->
    close_attrs ();
    ( !cost,
      { obs_counts = !obs_counts;
        obs_distincts = !obs_distincts;
        obs_stats_cost = !stats_cost;
        obs_nodes = List.rev !obs_nodes } )
  | exception e ->
    (match e with
    | Fault.Injected _ -> Metric.Counter.inc t.m.m_fault
    | _ -> ());
    close_attrs ();
    raise e)

let result_rows t expr =
  match Hashtbl.find_opt t.store (Expr.mask expr) with
  | Some inter -> inter.Intermediate.rows
  | None -> invalid_arg "Executor.result_rows: not materialized"
