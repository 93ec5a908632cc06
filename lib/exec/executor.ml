open Monsoon_util
open Monsoon_storage
open Monsoon_relalg
open Monsoon_sketch
open Monsoon_telemetry

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
  m_fused : Metric.Counter.t;
      (* kernel operators: hash joins, filtered cross products and scans
         whose selections are all identity projections *)
  m_scalar : Metric.Counter.t;
      (* scans and Σ passes that evaluate an opaque term *)
  h_node : Metric.Histogram.t;  (* per-plan-node wall milliseconds *)
}

type node = {
  expr : Expr.t;
  rows : float;
  complete : bool;
  distincts : (int * float) list;
  udf : (int * float * float) list;
  profile : Recorder.node_profile option;
}

type t = {
  catalog : Catalog.t;
  query : Query.t;
  mutable bud : budget;
  store : (Relset.t, Intermediate.t) Hashtbl.t;
  mutable sketch : Hyperloglog.t option;  (* the Σ sketch, once allocated *)
  mutable produced : float;
  mutable sigma_total : float;
  (* The running node's observations, newest first, reset per node. *)
  mutable n_distincts : (int * float) list;
  mutable n_udf : (int * float * float) list;  (* term, evals, fraction *)
  mutable rev_nodes : node list;  (* the latest call's nodes, newest first *)
  fault : Fault.t;
  deadline : Deadline.t;
  tel : Ctx.t;
  prof : Profile.t;
  m : counters;
}

let create ?(profile = Profile.disabled) ?(env = Env.default) catalog query
    bud =
  let tel = Ctx.of_env env in
  let m =
    { m_scanned = Ctx.counter tel "exec.tuples_scanned";
      m_built = Ctx.counter tel "exec.tuples_built";
      m_probed = Ctx.counter tel "exec.tuples_probed";
      m_emitted = Ctx.counter tel "exec.tuples_emitted";
      m_sigma = Ctx.counter tel "exec.sigma_objects";
      m_budget = Ctx.counter tel "exec.budget_spent";
      m_fault = Ctx.counter tel "fault.injected";
      m_fused = Ctx.counter tel "exec.fused_ops";
      m_scalar = Ctx.counter tel "exec.scalar_fallbacks";
      h_node = Ctx.histogram tel "exec.node_ms" }
  in
  { catalog;
    query;
    bud;
    store = Hashtbl.create 16;
    sketch = None;
    produced = 0.0;
    sigma_total = 0.0;
    n_distincts = [];
    n_udf = [];
    rev_nodes = [];
    fault = Env.fault env;
    deadline = Env.deadline env;
    tel;
    prof = profile;
    m }

let set_budget t bud = t.bud <- bud

let materialized t mask = Hashtbl.find_opt t.store mask

let total_produced t = t.produced

let sigma_objects t = t.sigma_total

let nodes t = List.rev t.rev_nodes

let spend t n =
  t.produced <- t.produced +. n;
  Metric.Counter.add t.m.m_budget n;
  t.bud.remaining <- t.bud.remaining -. n;
  if t.bud.remaining < 0.0 then raise Timeout

let table_of t rel = Catalog.find t.catalog (Query.rel_by_id t.query rel).Query.table

(* An identity term over [inter], when vectorizable: its declared type and
   its column as read in place — the base table's cached column through
   the row ids of the term's instance. *)
let identity_read t (inter : Intermediate.t) (tm : Term.t) =
  match tm.Term.args with
  | [ (rel, col) ] when Udf.is_identity tm.Term.udf ->
    let table = table_of t rel in
    let schema = Table.schema table in
    let j = Schema.index_of schema col in
    Some
      ( (Schema.columns schema).(j).Schema.ty,
        { Chunk.col = Table.column_at table j;
          ids = inter.Intermediate.ids.(Intermediate.position inter rel);
          n = Intermediate.cardinality inter } )
  | _ -> None

(* {2 Fault checkpoints}

   An operator's draws, all at its entry ({!Fault}): one [udf] per opaque
   term, in order. Identity projections never draw. *)
let draw_udfs t terms =
  List.iter
    (fun tm -> if not (Udf.is_identity tm.Term.udf) then Fault.udf t.fault)
    terms

(* The terms of predicates [pids], each predicate's in declared order. *)
let pred_terms t pids =
  List.concat_map (fun pid -> Predicate.terms (Query.pred t.query pid)) pids

(* {2 Opaque terms}

   Opaque UDF terms (in scan selections, Σ passes, join keys and
   straddling join filters) evaluate one tuple at a time, reading each
   argument from its instance's base row through the tuple's row id — the
   values the row engine's boxed tuples hold at the same slots. A compiled
   term takes a (left, right) pair of tuple indices so one evaluator
   serves single intermediates (the index passed twice) and candidate
   pairs of a join. *)

(* Argument [rel.col] of tuple [i] of [inter]. *)
let arg_reader t (inter : Intermediate.t) ~rel ~col =
  let ids = inter.Intermediate.ids.(Intermediate.position inter rel) in
  let table = table_of t rel in
  let rows = Table.rows table and j = Schema.index_of (Table.schema table) col in
  fun i -> rows.(ids.(i)).(j)

let compile_args tm (args : (int -> int -> Value.t) list) =
  let args = Array.of_list args in
  let n = Array.length args in
  let buf = Array.make n Value.Null in
  fun li ri ->
    for a = 0 to n - 1 do
      buf.(a) <- args.(a) li ri
    done;
    Udf.apply tm.Term.udf buf

(* [tm] over tuples of one intermediate: call it as [ev i i]. *)
let compile_term t inter tm =
  compile_args tm
    (List.map
       (fun (rel, col) ->
         let r = arg_reader t inter ~rel ~col in
         fun i _ -> r i)
       tm.Term.args)

(* [tm] over a candidate pair of [la] ⨝ [rb]: call it as [ev li ri]. *)
let compile_pair_term t (la : Intermediate.t) rb tm =
  compile_args tm
    (List.map
       (fun (rel, col) ->
         if Relset.mem rel la.Intermediate.mask then begin
           let r = arg_reader t la ~rel ~col in
           fun li _ -> r li
         end
         else begin
           let r = arg_reader t rb ~rel ~col in
           fun _ ri -> r ri
         end)
       tm.Term.args)

(* A filtered scan refines one selection vector over the base table,
   predicate by predicate in predicate order: an identity [col = const]
   through the base column ({!Chunk.sel_eq_const} when it comes first,
   {!Chunk.eq_const} after), an opaque one through its compiled term. Each
   predicate sees only the rows the ones before it kept, so the accepted
   set and the set of term evaluations are the row engine's short-circuit
   conjunction's. *)
let scan_base t rel =
  let mask = Relset.singleton rel in
  match Hashtbl.find_opt t.store mask with
  | Some inter -> inter
  | None ->
    let pids = Query.select_preds_of_rel t.query rel in
    Fault.row t.fault;
    draw_udfs t (pred_terms t pids);
    let n = Table.cardinality (table_of t rel) in
    Metric.Counter.add t.m.m_scanned (float_of_int n);
    let inter0 = Intermediate.of_table t.query t.catalog rel in
    Profile.set_input t.prof ~rows:(float_of_int n) ~denom:(float_of_int n);
    let inter =
      if pids = [] then begin
        Profile.set_path t.prof "raw";
        inter0
      end
      else begin
        (* Each selection with its base column when it is an identity
           projection. *)
        let preds =
          List.map
            (fun pid ->
              match Query.pred t.query pid with
              | Predicate.Select { term = tm; value; _ } ->
                let col =
                  Option.map (fun (_, r) -> r.Chunk.col)
                    (identity_read t inter0 tm)
                in
                (col, tm, value)
              | Predicate.Join _ ->
                (* A scan's predicates are its selections
                   ({!Query.select_preds_of_rel}). *)
                assert false)
            pids
        in
        Metric.Counter.inc
          (if List.exists (fun (col, _, _) -> Option.is_none col) preds then
             t.m.m_scalar
           else t.m.m_fused);
        Profile.add_batches t.prof 1;
        List.iter
          (function
            | Some col, _, _ -> Profile.add_repr t.prof col
            | None, _, _ -> Profile.add_repr_rows t.prof)
          preds;
        (* Selectivity observations for the repository, newest first: each
           select term evaluated the rows the terms before it kept, and
           kept this fraction of them. They join the node's only once the
           scan has paid for its output. *)
        let obs = ref [] in
        let observe (tm : Term.t) ~rows_in ~kept =
          let frac =
            if rows_in = 0 then 0.0
            else float_of_int kept /. float_of_int rows_in
          in
          obs := (tm.Term.id, float_of_int rows_in, frac) :: !obs
        in
        let sel, rest =
          match preds with
          | (Some col, tm, value) :: rest ->
            let sel = Chunk.sel_eq_const col value n in
            Profile.set_path t.prof "sel_eq_const";
            Profile.set_sel_density t.prof ~kept:sel.Chunk.n ~of_:n;
            observe tm ~rows_in:n ~kept:sel.Chunk.n;
            (sel, rest)
          | _ ->
            Profile.set_path t.prof "refine";
            (Chunk.sel_all n, preds)
        in
        List.iter
          (fun (col, tm, value) ->
            let rows_in = sel.Chunk.n in
            (match col with
            | Some col -> Chunk.refine (Chunk.eq_const col value) sel
            | None ->
              let ev = compile_term t inter0 tm in
              Chunk.refine (fun i -> Value.equal (ev i i) value) sel);
            observe tm ~rows_in ~kept:sel.Chunk.n)
          rest;
        let ids = Array.sub sel.Chunk.idx 0 sel.Chunk.n in
        spend t (float_of_int (Array.length ids));
        t.n_udf <- !obs @ t.n_udf;
        Intermediate.of_base t.query t.catalog ~ids rel
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

(* The straddling filters [pids] of a join of [a] and [b]: predicates
   whose terms read both sides, so they test candidate pairs. [Some f],
   where [f i j] tests tuple [i] of [a] with tuple [j] of [b] as the row
   engine's short-circuit conjunction does, or [None] when there are
   none. *)
let pair_filter t (a : Intermediate.t) b = function
  | [] -> None
  | pids ->
    let term = compile_pair_term t a b in
    let fs =
      List.map
        (fun pid ->
          match Query.pred t.query pid with
          | Predicate.Select { term = tm; value; _ } ->
            let ev = term tm in
            fun i j -> Value.equal (ev i j) value
          | Predicate.Join { left; right; _ } ->
            let evl = term left and evr = term right in
            fun i j -> Value.equal (evl i j) (evr i j))
        pids
    in
    Some (fun i j -> List.for_all (fun f -> f i j) fs)

(* {2 Join output}

   Every join — the int kernel and the cross product — writes each
   output tuple's row ids straight into one array per instance of each
   side. *)

(* A join's output: one row-id array per instance of a first side ([oa])
   and of a second ([ob]), [n] tuples written of [cap] allocated. *)
type out_ids = {
  oa : int array array;
  ob : int array array;
  mutable n : int;
  mutable cap : int;
}

let out_ids (a : Intermediate.t) (b : Intermediate.t) cap =
  { oa = Array.map (fun _ -> Array.make cap 0) a.Intermediate.ids;
    ob = Array.map (fun _ -> Array.make cap 0) b.Intermediate.ids;
    n = 0;
    cap }

(* Doubles the arrays, to at least 256 tuples. *)
let grow o =
  let cap = max 256 (2 * o.n) in
  let grow outs =
    Array.iteri
      (fun k a ->
        let b = Array.make cap 0 in
        Array.blit a 0 b 0 o.n;
        outs.(k) <- b)
      outs
  in
  grow o.oa;
  grow o.ob;
  o.cap <- cap

(* Writes the output tuple pairing tuple [i] of the first side (row ids
   [aids]) with tuple [j] of the second ([bids]). *)
let[@inline] put o (aids : int array array) (bids : int array array) i j =
  let n = o.n in
  if n = o.cap then grow o;
  for k = 0 to Array.length aids - 1 do
    Array.unsafe_set (Array.unsafe_get o.oa k) n
      (Array.unsafe_get (Array.unsafe_get aids k) i)
  done;
  for k = 0 to Array.length bids - 1 do
    Array.unsafe_set (Array.unsafe_get o.ob k) n
      (Array.unsafe_get (Array.unsafe_get bids k) j)
  done;
  o.n <- n + 1

(* The join of [a] and [b] (the first and second sides of [o]). *)
let joined o a b =
  Intermediate.of_join a b ~card:o.n ~ids:(Array.append o.oa o.ob)

(* {2 The joins}

   Every emission loop counts the tuples it writes in an int, [o.n], and
   compares it with the loop's room: the whole budget units at hand when
   the operator starts ({!affordable}). The tuple that would take [o.n]
   past the room overdraws and raises Timeout, where the row engine's
   per-tuple draws would (the Timeout point is part of the contract). The
   float budget, [t.produced] and the atomic metric counters take the
   tally once, in the loop's exit match: normal, Timeout (the overdrawing
   tuple counts as produced and spent but not emitted) or a filter's
   raise (the tuples accepted before it count). Tallies are whole
   numbers, so one float add equals the per-tuple adds bit for bit, and
   one subtraction leaves the budget's bits where the per-tuple draws
   did ({!draw}). *)

(* [r] after [n] draws of one unit each, in one subtraction. Below 2^53
   each of those draws is exact up to the one that goes negative, so the
   single subtraction rounds the same real number the last draw rounds.
   From 2^53 up a unit draw rounds: it reaches a fixed point (every
   further draw leaves [r] as it is) or 2^53 - 1 within two draws. *)
let rec draw r n =
  if n = 0 || not (r >= 0x1p53) then r -. float_of_int n
  else
    let r' = r -. 1.0 in
    if r' = r then r else draw r' (n - 1)

let flush_counters t ~emitted ~overdraw =
  let drawn = if overdraw then emitted + 1 else emitted in
  t.bud.remaining <- draw t.bud.remaining drawn;
  let e = float_of_int emitted and d = float_of_int drawn in
  t.produced <- t.produced +. d;
  if drawn > 0 then Metric.Counter.add t.m.m_budget d;
  if emitted > 0 then Metric.Counter.add t.m.m_emitted e

(* Ends an emission loop into [o] that raised [e]. *)
let flush_raise t o e =
  flush_counters t ~emitted:o.n
    ~overdraw:(match e with Timeout -> true | _ -> false);
  raise e

(* The loop's room: how many tuples the budget pays for before one
   overdraws. Each draws one whole unit, so that is [floor remaining],
   and 0 for a negative budget. A NaN budget never overdraws, nor does
   one of 2^53 or more in any output that fits in memory: both give
   [max_int]. It is fixed at the operator's entry; nothing draws the
   budget until the loop's exit settles it. *)
let affordable t =
  let r = t.bud.remaining in
  if Float.is_nan r || r >= 0x1p53 then max_int
  else if r < 0.0 then 0
  else int_of_float r

(* Emits candidate pair ([i], [j]) if it passes the straddling [filter]:
   the pair that would take [o.n] past [room] raises Timeout instead, and
   the others are {!put}. Testing the filter before the room is the row
   engine's order, so the accepted pairs and the Timeout tuple are its
   own. Kept out of line so the probe loop around it stays in
   registers. *)
let emit_ids o ~room filter aids bids i j =
  match filter with
  | Some f when not (f i j) -> ()
  | _ ->
    if o.n >= room then raise Timeout;
    put o aids bids i j

(* The cross product, [la]-major like the row engine's, with the
   straddling filters [filter_pids]. Unfiltered, every candidate is an
   output, so arrays of the affordable size hold them; a filter's output
   starts small and grows. *)
let cross t (la : Intermediate.t) (rb : Intermediate.t) ~filter_pids =
  let nl = Intermediate.cardinality la and nr = Intermediate.cardinality rb in
  Metric.Counter.add t.m.m_probed (float_of_int nl);
  Profile.set_path t.prof "cross";
  let filter = pair_filter t la rb filter_pids in
  let room = affordable t in
  let cap = min (nl * nr) room in
  let o = out_ids la rb (if Option.is_none filter then cap else min 256 cap) in
  let lids = la.Intermediate.ids and rids = rb.Intermediate.ids in
  (match
     for li = 0 to nl - 1 do
       for ri = 0 to nr - 1 do
         emit_ids o ~room filter lids rids li ri
       done
     done
   with
  | () -> flush_counters t ~emitted:o.n ~overdraw:false
  | exception e -> flush_raise t o e);
  joined o la rb

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* One int key column as read: tuple [i]'s key is [data.{at.(i)}], the
   base column through the side's row ids, or fresh codes through
   identity ids ({!Chunk.key_codes}). Arrays of this record, unlike
   arrays of the abstract Bigarray type, are read without the generic
   float-array check. *)
type key = Chunk.codes = { data : ints; at : int array }

(* The kernel's per-row helpers take every input as an argument, so once
   inlined they read registers, not a closure environment. A composite
   key's first column is passed on its own ([k0] read through [a0]); the
   loops over the others run zero times for a single key. *)

let[@inline] key_at (k : key) i =
  Bigarray.Array1.unsafe_get k.data (Array.unsafe_get k.at i)

(* Bucket of row [i]: the keys folded into one int, then one multiply,
   high bits — for a single key, multiplicative hashing of the key. *)
let[@inline] key_bucket (k0 : ints) (a0 : int array) (keys : key array) nk msk
    i =
  let h = ref (Bigarray.Array1.unsafe_get k0 (Array.unsafe_get a0 i)) in
  for c = 1 to nk - 1 do
    h := (!h * 0x3C79AC492BA7B653) lxor key_at (Array.unsafe_get keys c) i
  done;
  ((!h * 0x2545F4914F6CDD1D) lsr 32) land msk

(* The newest build row on the chain from [c] (build keys [b0] through
   [ba], then [bk]) whose key equals row [i] of [k0] through [a0], then
   [keys]. *)
let[@inline] chain_find (b0 : ints) (ba : int array) (bk : key array)
    (next : int array) nk c (k0 : ints) (a0 : int array) (keys : key array) i
    =
  let x = Bigarray.Array1.unsafe_get k0 (Array.unsafe_get a0 i) in
  let c = ref c in
  while
    !c >= 0
    && (Bigarray.Array1.unsafe_get b0 (Array.unsafe_get ba !c) <> x
       ||
       let k = ref 1 in
       while
         !k < nk
         && key_at (Array.unsafe_get bk !k) !c
            = key_at (Array.unsafe_get keys !k) i
       do
         incr k
       done;
       !k < nk)
  do
    c := Array.unsafe_get next !c
  done;
  !c

(* The newest build row whose key equals probe row [pi]'s, -1 for none.
   A single key skips the composite loops altogether: this lookup is most
   of a probe-dominated join's time. *)
let[@inline] probe_find (b0 : ints) ba bk next head msk nk (p0 : ints) pa pk pi
    =
  if nk = 1 then begin
    let x = Bigarray.Array1.unsafe_get p0 (Array.unsafe_get pa pi) in
    let c =
      ref (Array.unsafe_get head (((x * 0x2545F4914F6CDD1D) lsr 32) land msk))
    in
    while
      !c >= 0 && Bigarray.Array1.unsafe_get b0 (Array.unsafe_get ba !c) <> x
    do
      c := Array.unsafe_get next !c
    done;
    !c
  end
  else
    chain_find b0 ba bk next nk
      (Array.unsafe_get head (key_bucket p0 pa pk nk msk pi))
      p0 pa pk pi

(* The repeats regime's one probe pass over probe rows [0, np): each
   probe row that finds its key, packed with the newest build row with
   that key as [pi lsl bits lor r] ([r < 2^bits]), [nm] of them in
   probe order, and [total], the candidates they make. The array starts
   small and doubles, so it holds at most two ints per matched probe
   row. *)
let probe_matches (b0 : ints) ba bk next head msk nk (p0 : ints) pa pk group
    ~bits np =
  let m = ref (Array.make (min np 256) 0) in
  let nm = ref 0 and total = ref 0 in
  for pi = 0 to np - 1 do
    let r = probe_find b0 ba bk next head msk nk p0 pa pk pi in
    if r >= 0 then begin
      let k = !nm in
      if k = Array.length !m then begin
        let b = Array.make (max 256 (2 * k)) 0 in
        Array.blit !m 0 b 0 k;
        m := b
      end;
      Array.unsafe_set !m k ((pi lsl bits) lor r);
      nm := k + 1;
      total := !total + Array.unsafe_get group r
    end
  done;
  (!m, !nm, !total)

(* The unfiltered repeats regime's fill: for each of the [nm] matches [m]
   ({!probe_matches}: probe row [pi], newest build row [r]), its key
   group of [group.(r)] tuples into [o] — on the probe side a run of
   [pi]'s id per column, on the build side each column along the [same]
   chain from [r], newest build row first. [o] holds [min total room]
   tuples, so the group the room ends in is written up to the room, and
   the next tuple overdraws. *)
let fill_groups o (bids : int array array) (pids : int array array)
    (same : int array) (group : int array) ~bits (m : int array) nm =
  let rmask = (1 lsl bits) - 1 in
  for k = 0 to nm - 1 do
    let v = Array.unsafe_get m k in
    let pi = v lsr bits and r = v land rmask in
    let n = o.n in
    let full = Array.unsafe_get group r in
    let g = min full (o.cap - n) in
    for c = 0 to Array.length pids - 1 do
      let dst = Array.unsafe_get o.ob c in
      let id = Array.unsafe_get (Array.unsafe_get pids c) pi in
      for x = n to n + g - 1 do
        Array.unsafe_set dst x id
      done
    done;
    for c = 0 to Array.length bids - 1 do
      let dst = Array.unsafe_get o.oa c and src = Array.unsafe_get bids c in
      let b = ref r in
      for x = n to n + g - 1 do
        Array.unsafe_set dst x (Array.unsafe_get src !b);
        b := Array.unsafe_get same !b
      done
    done;
    o.n <- n + g;
    if g < full then raise Timeout
  done

(* The filtered repeats regime's fill: the same matches, each key group's
   candidates tested one by one, newest build row first. *)
let fill_filtered o ~room filter bids pids (same : int array) ~bits
    (m : int array) nm =
  let rmask = (1 lsl bits) - 1 in
  for k = 0 to nm - 1 do
    let v = Array.unsafe_get m k in
    let pi = v lsr bits in
    let r = ref (v land rmask) in
    while !r >= 0 do
      emit_ids o ~room filter bids pids !r pi;
      r := Array.unsafe_get same !r
    done
  done

(* The streaming regime: one pass over probe rows [0, np), each emitting
   its key's one build row, if any. *)
let stream_probe o ~room filter bids pids (b0 : ints) ba bk next head msk nk
    (p0 : ints) pa pk np =
  for pi = 0 to np - 1 do
    let r = probe_find b0 ba bk next head msk nk p0 pa pk pi in
    if r >= 0 then emit_ids o ~room filter bids pids r pi
  done

(* The int join kernel: one or more key pairs of int code columns, over
   probe rows [0, np), with the straddling [filter] oriented to (build,
   probe). It emits exactly the pairs, in exactly the order, of the row
   engine's hash join — probe-major, newest build row first within a key,
   the [Hashtbl.find_all] order, the filter tested per candidate — and
   writes each output tuple's row ids straight into the result's id
   arrays.

   The build chains rows into buckets ({!key_bucket}; collisions are
   confirmed by comparing the keys) and links each row to the next older
   row with its key, counting the rows of that key so far. Then one of two
   regimes, by what the build found:
   - some key repeats: one output tuple per probe row no longer bounds the
     output. One probe pass ({!probe_matches}) records each matched probe
     row with its chain head and sums the group sizes; the rest walks
     only those records. Unfiltered, every candidate is an output: the
     arrays are allocated at that exact size, capped by the room, and
     {!fill_groups} writes them a key group at a time. Filtered
     ({!fill_filtered}), each candidate is tested before it counts
     against the room, and the arrays start small and grow;
   - every key is unique: a probe row emits at most once, so one streaming
     pass ({!stream_probe}) fills arrays that start small and double — a
     probe-dominated join pays no second probe. The arrays keep their
     slack past [card] (a trimming copy raised imdb-plan's peak heap by
     9%). *)
let join_ints t ~(build : Intermediate.t) ~(probe : Intermediate.t) ~np
    ~build_is_left ~filter (bk : key array) (pk : key array) =
  let nk = Array.length bk in
  let b0 = bk.(0).data and ba = bk.(0).at in
  let p0 = pk.(0).data and pa = pk.(0).at in
  let nb = Intermediate.cardinality build in
  let sz = Chunk.next_pow2 (2 * max 1 nb) in
  let msk = sz - 1 in
  let head = Array.make sz (-1) in
  let next = Array.make (max 1 nb) (-1) in
  (* [same.(bi)]: the next older build row with [bi]'s key, -1 for none;
     [group.(bi)]: the build rows up to [bi] with its key. *)
  let same = Array.make (max 1 nb) (-1) in
  let group = Array.make (max 1 nb) 1 in
  let repeats = ref false in
  for bi = 0 to nb - 1 do
    let h = key_bucket b0 ba bk nk msk bi in
    let s =
      chain_find b0 ba bk next nk (Array.unsafe_get head h) b0 ba bk bi
    in
    if s >= 0 then begin
      same.(bi) <- s;
      group.(bi) <- group.(s) + 1;
      repeats := true
    end;
    next.(bi) <- head.(h);
    head.(h) <- bi
  done;
  if Profile.live t.prof then Profile.observe_chains t.prof ~head ~next;
  let room = affordable t in
  (* The bits of a bucket index, which hold any build row: the low part
     of a packed match. *)
  let bits = ref 0 in
  while 1 lsl !bits < sz do
    incr bits
  done;
  let bits = !bits in
  let matches =
    if !repeats then
      Some (probe_matches b0 ba bk next head msk nk p0 pa pk group ~bits np)
    else None
  in
  let cap =
    match (matches, filter) with
    | Some (_, _, total), None -> min total room
    | Some (_, _, total), Some _ -> min 256 (min total room)
    | None, _ -> min 256 (min np room)
  in
  let bids = build.Intermediate.ids and pids = probe.Intermediate.ids in
  let o = out_ids build probe cap in
  (match
     match matches with
     | Some (m, nm, _) when Option.is_none filter ->
       fill_groups o bids pids same group ~bits m nm
     | Some (m, nm, _) -> fill_filtered o ~room filter bids pids same ~bits m nm
     | None ->
       stream_probe o ~room filter bids pids b0 ba bk next head msk nk p0 pa
         pk np
   with
  | () -> flush_counters t ~emitted:o.n ~overdraw:false
  | exception e -> flush_raise t o e);
  if build_is_left then joined o build probe
  else Intermediate.of_join probe build ~card:o.n ~ids:(Array.append o.ob o.oa)

(* Key columns of one join side, one per term, as read: an identity term
   reads its base column in place; an opaque UDF term is evaluated once
   per tuple into a boxed column read through identity ids. UDF terms are
   evaluated row-major, as the row engine evaluates its key lists, up to
   the first raise. Returns the columns, the rows evaluated and the
   exception raised, if any. *)
let key_columns t (inter : Intermediate.t) terms =
  let n = Intermediate.cardinality inter in
  let evs = ref [] in
  let cols =
    List.map
      (fun tm ->
        match identity_read t inter tm with
        | Some (_, r) -> r
        | None ->
          let vs = Array.make n Value.Null in
          evs := (compile_term t inter tm, vs) :: !evs;
          { Chunk.col = Column.Boxed vs;
            ids = Intermediate.identity_prefix n;
            n })
      terms
  in
  let evs = Array.of_list (List.rev !evs) in
  let rows = ref (if Array.length evs = 0 then n else 0) in
  let raised =
    match
      while !rows < n do
        let i = !rows in
        Array.iter (fun (ev, vs) -> vs.(i) <- ev i i) evs;
        rows := i + 1
      done
    with
    | () -> None
    | exception e -> Some e
  in
  (cols, !rows, raised)

(* The hash join on any key terms, with the straddling filters
   [filter_pids]: each key pair becomes two int code columns
   ({!Chunk.key_codes}) and {!join_ints} runs on them. Counters, the
   per-emitted-row budget draw and the emission order all replicate the
   row engine's. A build key that raises ends the join before it emits,
   as the row engine's build does; a probe key that raises at row k ends
   it after the tuples of probe rows < k, unless one of those overdraws
   the budget or raises in a filter first. *)
let hash_join_coded t (la : Intermediate.t) (rb : Intermediate.t) ~conn
    ~filter_pids =
  let build_is_left =
    Intermediate.cardinality la <= Intermediate.cardinality rb
  in
  let build, probe = if build_is_left then (la, rb) else (rb, la) in
  Metric.Counter.add t.m.m_built
    (float_of_int (Intermediate.cardinality build));
  Metric.Counter.add t.m.m_probed
    (float_of_int (Intermediate.cardinality probe));
  (* The path is attributed (and the fused counter bumped) before any key
     is evaluated, so an early exit still reports the path that was
     executing. *)
  Metric.Counter.inc t.m.m_fused;
  Profile.set_path t.prof "join_ints";
  let terms = List.map (orient_pred t build.Intermediate.mask) conn in
  if Profile.live t.prof then begin
    let repr inter tm =
      match identity_read t inter tm with
      | Some (ty, r) -> Profile.add_repr_read t.prof ty r.Chunk.col r.ids ~n:r.n
      | None -> Profile.add_repr_rows t.prof
    in
    List.iter
      (fun (bt, pt) ->
        repr build bt;
        repr probe pt)
      terms
  end;
  let bcols, _, raised = key_columns t build (List.map fst terms) in
  Option.iter raise raised;
  let pcols, np, raised = key_columns t probe (List.map snd terms) in
  let bk, pk = List.split (List.map2 Chunk.key_codes bcols pcols) in
  let inter =
    join_ints t ~build ~probe ~np ~build_is_left
      ~filter:(pair_filter t build probe filter_pids)
      (Array.of_list bk) (Array.of_list pk)
  in
  Option.iter raise raised;
  inter

let hash_join t (la : Intermediate.t) (rb : Intermediate.t) =
  let q = t.query in
  let conn = Query.connecting q la.Intermediate.mask rb.Intermediate.mask in
  let newly =
    Query.newly_evaluable q ~left:la.Intermediate.mask
      ~right:rb.Intermediate.mask
  in
  let filter_pids = List.filter (fun p -> not (List.mem p conn)) newly in
  draw_udfs t (pred_terms t (conn @ filter_pids));
  if conn <> [] then Fault.build t.fault;
  let nl = Intermediate.cardinality la and nr = Intermediate.cardinality rb in
  (* Join selectivity is measured against the cross-product size. *)
  Profile.set_input t.prof
    ~rows:(float_of_int (nl + nr))
    ~denom:(float_of_int nl *. float_of_int nr);
  Profile.add_batches t.prof 2;
  if conn = [] then begin
    Profile.set_kind t.prof Profile.Cross;
    (* A bare cross product evaluates no predicate, so it counts as no
       kernel operator. *)
    if filter_pids <> [] then Metric.Counter.inc t.m.m_fused;
    cross t la rb ~filter_pids
  end
  else hash_join_coded t la rb ~conn ~filter_pids

(* The executor's one Σ sketch, allocated on its first Σ pass and cleared
   for each term. *)
let sketch t =
  match t.sketch with
  | Some h ->
    Hyperloglog.clear h;
    h
  | None ->
    let h = Hyperloglog.create ~p:14 () in
    t.sketch <- Some h;
    h

(* The distinct row ids among tuples [0, card) of one instance's [ids],
   in first-seen order, [n] of them: a byte per row of the instance's
   base table ([rows] rows) marks the ids already taken. *)
let distinct_ids (ids : int array) ~card ~rows =
  let seen = Bytes.make rows '\000' in
  let d = Array.make (min card rows) 0 in
  let n = ref 0 in
  for i = 0 to card - 1 do
    let id = Array.unsafe_get ids i in
    if Bytes.unsafe_get seen id = '\000' then begin
      Bytes.unsafe_set seen id '\001';
      Array.unsafe_set d !n id;
      incr n
    end
  done;
  (d, !n)

(* One extra pass over the materialized input computes an HLL distinct
   count for every predicate-relevant term it can evaluate, and charges
   [card] objects whatever it reads.

   An identity term reads its base column in place, through the row ids
   of its instance. A register of the sketch keeps the highest rank it
   was raised to, so feeding it one value twice changes nothing, in any
   order: over a multi-instance intermediate, where a join repeats each
   base row once per partner, the pass hashes each distinct row of an
   instance once ({!distinct_ids}, collected on the instance's first
   term), and the registers, hence the count, are a per-tuple pass's. A
   single instance's ids are a scan's, already distinct. An opaque term
   is evaluated on every tuple. *)
let stats_pass t (inter : Intermediate.t) =
  let card = Intermediate.cardinality inter in
  Ctx.with_span t.tel "exec.sigma"
    ~attrs:[ ("objects", Span.Int card) ]
    (fun _ ->
      let terms = Query.interesting_terms t.query inter.Intermediate.mask in
      draw_udfs t terms;
      Profile.set_input t.prof ~rows:(float_of_int card)
        ~denom:(float_of_int card);
      (* Attributed before the budget draw so a Σ pass that trips Timeout
         still reports which path it was on. *)
      Profile.set_path t.prof "column";
      spend t (float_of_int card);
      Metric.Counter.add t.m.m_sigma (float_of_int card);
      t.sigma_total <- t.sigma_total +. float_of_int card;
      let multi = Array.length inter.Intermediate.rels > 1 in
      (* Each instance's distinct row ids, once collected: (rel, ids, n). *)
      let distinct = ref [] in
      let rows_of rel ids =
        if not multi then (ids, card)
        else
          match List.find_opt (fun (r, _, _) -> r = rel) !distinct with
          | Some (_, d, n) -> (d, n)
          | None ->
            let d, n =
              distinct_ids ids ~card
                ~rows:(Table.cardinality (table_of t rel))
            in
            distinct := (rel, d, n) :: !distinct;
            (d, n)
      in
      let row_terms = ref 0 and col_terms = ref 0 in
      List.iter
        (fun tm ->
          let hll = sketch t in
          (match identity_read t inter tm with
          | Some (ty, { Chunk.col; ids; _ }) ->
            if !col_terms = 0 then Profile.add_batches t.prof 1;
            incr col_terms;
            Profile.add_repr_read t.prof ty col ids ~n:card;
            let rel = fst (List.hd tm.Term.args) in
            let ids, n = rows_of rel ids in
            for i = 0 to n - 1 do
              Hyperloglog.add_hash hll
                (Column.value_hash col (Array.unsafe_get ids i))
            done
          | None ->
            incr row_terms;
            Profile.add_repr_rows t.prof;
            let ev = compile_term t inter tm in
            for i = 0 to card - 1 do
              Hyperloglog.add_hash hll (Value.hash (ev i i))
            done);
          let d = Float.max 1.0 (Float.round (Hyperloglog.count hll)) in
          t.n_distincts <- (tm.Term.id, d) :: t.n_distincts;
          t.n_udf <-
            (tm.Term.id, float_of_int card,
             if card = 0 then 0.0 else d /. float_of_int card)
            :: t.n_udf)
        terms;
      (* A Σ pass that had to evaluate any opaque term per-row counts as one
         scalar fallback. *)
      if !row_terms > 0 then begin
        Metric.Counter.inc t.m.m_scalar;
        if !col_terms > 0 then Profile.set_path t.prof "mixed"
        else Profile.set_path t.prof "row"
      end)

let execute t expr =
  Ctx.with_span t.tel "exec.execute" (fun span ->
  t.rev_nodes <- [];
  let cost = ref 0.0 in
  let stats_cost = ref 0.0 in
  let full = Query.all_mask t.query in
  (* One plan node's materialization, recorded: on every exit path it
     leaves one {!node} — complete or not, with the observations made
     before it died — and its self time (children are materialized
     outside [f]) lands on the exec.node_ms histogram. A non-Null tracer
     gets one child span per plan node under exec.execute, its attributes
     written from the record, so Perfetto timelines show the operator
     breakdown. Cache hits never pass through here. *)
  let run_node e default_kind f =
    Profile.reset t.prof;
    t.n_distincts <- [];
    t.n_udf <- [];
    let b0 = t.produced in
    let t0 = Timer.now () in
    let finish span ~complete ~rows =
      let dt = Timer.now () -. t0 in
      Metric.Histogram.observe t.m.h_node (dt *. 1000.0);
      let node =
        { expr = e;
          rows;
          complete;
          distincts = List.rev t.n_distincts;
          udf = List.rev t.n_udf;
          profile =
            Profile.finish t.prof ~default_kind ~rows_out:rows
              ~budget:(t.produced -. b0) ~complete ~seconds:dt }
      in
      t.rev_nodes <- node :: t.rev_nodes;
      match span with
      | None -> ()
      | Some s ->
        Span.set_attr s "rows_out" (Span.Float node.rows);
        Span.set_attr s "complete" (Span.Bool node.complete)
    in
    let body span =
      match f () with
      | inter ->
        finish span ~complete:true
          ~rows:(float_of_int (Intermediate.cardinality inter));
        inter
      | exception ex ->
        (* Timeout / Deadline.Expired / Fault.Injected mid-operator: the
           in-flight node is still recorded (rows 0, budget = what it
           drew) so profiles stay consistent with the exec.* counters. *)
        finish span ~complete:false ~rows:0.0;
        raise ex
    in
    if Ctx.tracing t.tel then
      Ctx.with_span t.tel "exec.node"
        ~attrs:[ ("node", Span.Str (Expr.describe t.query e)) ]
        (fun s -> body (Some s))
    else body None
  in
  let rec go ~is_root e : Intermediate.t =
    (* Batch boundary: one cooperative deadline check per plan node. *)
    Deadline.check t.deadline;
    match e with
    | Expr.Stats { inner; _ } ->
      let inter = go ~is_root inner in
      ignore
        (run_node e Profile.Sigma (fun () ->
             stats_pass t inter;
             inter));
      let card = float_of_int (Intermediate.cardinality inter) in
      cost := !cost +. card;
      stats_cost := !stats_cost +. card;
      inter
    | Expr.Leaf { mask = m; _ } -> (
      match Hashtbl.find_opt t.store m with
      | Some inter -> inter
      | None -> (
        match Relset.to_list m with
        | [ i ] -> run_node e Profile.Scan (fun () -> scan_base t i)
        | _ -> invalid_arg "Executor.execute: unmaterialized intermediate leaf"))
    | Expr.Join { left = a; right = b; mask = m; _ } -> (
      match Hashtbl.find_opt t.store m with
      | Some inter -> inter
      | None ->
        let ia = go ~is_root:false a in
        let ib = go ~is_root:false b in
        let inter = run_node e Profile.Join (fun () -> hash_join t ia ib) in
        (* Final result of the complete query is not charged as cost. *)
        if not (is_root && Relset.equal m full) then
          cost := !cost +. float_of_int (Intermediate.cardinality inter);
        Hashtbl.replace t.store m inter;
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
    !cost
  | exception e ->
    (match e with
    | Fault.Injected _ -> Metric.Counter.inc t.m.m_fault
    | _ -> ());
    close_attrs ();
    raise e)

let result_rows t expr =
  match materialized t (Expr.mask expr) with
  | Some inter -> Intermediate.rows t.query t.catalog inter
  | None -> invalid_arg "Executor.result_rows: not materialized"
