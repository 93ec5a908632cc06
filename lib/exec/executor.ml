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
  m_fused : Metric.Counter.t;  (* fused fast-path activations *)
  m_scalar : Metric.Counter.t;  (* scalar (per-row) fallback activations *)
  h_node : Metric.Histogram.t;  (* per-plan-node wall milliseconds *)
}

type t = {
  catalog : Catalog.t;
  query : Query.t;
  mutable bud : budget;
  store : (Relset.t, Intermediate.t) Hashtbl.t;
  chunks : (Relset.t, Chunk.t) Hashtbl.t;
  mutable produced : float;
  mutable sigma_total : float;
  mutable udf_obs : (int * float * float) list;  (* term, evals, fraction *)
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
    chunks = Hashtbl.create 16;
    produced = 0.0;
    sigma_total = 0.0;
    udf_obs = [];
    fault = Env.fault env;
    deadline = Env.deadline env;
    tel;
    prof = profile;
    m }

let set_budget t bud = t.bud <- bud

type stat_obs = {
  obs_counts : (Relset.t * float) list;
  obs_distincts : (int * float) list;
  obs_stats_cost : float;
  obs_nodes : (Expr.t * float) list;
}

let materialized t mask = Hashtbl.find_opt t.store mask

let total_produced t = t.produced

let sigma_objects t = t.sigma_total

let udf_observations t = List.rev t.udf_obs

let spend t n =
  t.produced <- t.produced +. n;
  Metric.Counter.add t.m.m_budget n;
  t.bud.remaining <- t.bud.remaining -. n;
  if t.bud.remaining < 0.0 then raise Timeout

(* Chunk (batch view) of a materialized relation, keyed like the store. *)
let chunk_of ?table t (inter : Intermediate.t) =
  match Hashtbl.find_opt t.chunks inter.Intermediate.mask with
  | Some c when c.Chunk.rows == inter.Intermediate.rows -> c
  | _ ->
    let c = Chunk.of_intermediate ?table t.query t.catalog inter in
    Hashtbl.replace t.chunks inter.Intermediate.mask c;
    c

(* Local slot of an identity term within [inter], when vectorizable. *)
let identity_slot t (inter : Intermediate.t) (tm : Term.t) =
  match tm.Term.args with
  | [ (rel, col) ] when Udf.is_identity tm.Term.udf ->
    Some (Intermediate.col_index t.query t.catalog inter ~rel ~col)
  | _ -> None

let compile_term t inter tm =
  let ev =
    Term.compile tm
      ~col_index:(fun ~rel ~col ->
        Intermediate.col_index t.query t.catalog inter ~rel ~col)
  in
  (* UDF checkpoint: the wrapper exists only when a plan is armed, so the
     disabled path keeps the bare compiled evaluator. *)
  if Fault.armed t.fault then (fun row ->
    Fault.udf t.fault;
    ev row)
  else ev

(* Predicate checkers over a single intermediate's rows. *)
let compile_filter t inter pid =
  match Query.pred t.query pid with
  | Predicate.Select { term = tm; value; _ } ->
    let ev = compile_term t inter tm in
    fun row -> Value.equal (ev row) value
  | Predicate.Join { left; right; _ } ->
    let evl = compile_term t inter left and evr = compile_term t inter right in
    fun row -> Value.equal (evl row) (evr row)

(* Vectorized filters over one chunk: every term of every predicate must
   be an identity projection, else the scan falls back to the scalar
   row loop. Returns per-index predicates in predicate order. *)
let vector_filters t (inter : Intermediate.t) chunk pids =
  let exception Fallback in
  let slot tm =
    match identity_slot t inter tm with
    | Some s -> s
    | None -> raise Fallback
  in
  try
    Some
      (List.map
         (fun pid ->
           match Query.pred t.query pid with
           | Predicate.Select { term = tm; value; _ } ->
             Chunk.eq_const (Chunk.column chunk (slot tm)) value
           | Predicate.Join { left; right; _ } ->
             let eq =
               Chunk.eq_cols
                 (Chunk.column chunk (slot left))
                 (Chunk.column chunk (slot right))
             in
             fun i -> eq i i)
         pids)
  with Fallback -> None

let scan_base t rel =
  let mask = Relset.singleton rel in
  match Hashtbl.find_opt t.store mask with
  | Some inter -> inter
  | None ->
    let table = Catalog.find t.catalog (Query.rel_by_id t.query rel).Query.table in
    let raw = Table.rows table in
    Metric.Counter.add t.m.m_scanned (float_of_int (Array.length raw));
    (* Row checkpoint: one draw per scanned base row. A poisoned row aborts
       the scan — corrupt data is detected, not silently propagated. *)
    if Fault.armed t.fault then Array.iter (fun _ -> Fault.row t.fault) raw;
    let inter0 = Intermediate.of_base t.query t.catalog ~rows:raw rel in
    let pids = Query.select_preds_of_rel t.query rel in
    Profile.set_input t.prof
      ~rows:(float_of_int (Array.length raw))
      ~denom:(float_of_int (Array.length raw));
    let inter =
      if pids = [] then begin
        Profile.set_path t.prof "raw";
        inter0
      end
      else begin
        let vectorized =
          if Fault.armed t.fault then None
          else begin
            let chunk = chunk_of ~table t inter0 in
            match vector_filters t inter0 chunk pids with
            | None -> None
            | Some preds ->
              Profile.add_batches t.prof 1;
              (* Representation mix of every predicate slot this scan
                 touches; Chunk.column memoizes, so the profiled lookups
                 just reread the cached views. *)
              if Profile.live t.prof then
                List.iter
                  (fun pid ->
                    let slot_repr tm =
                      match identity_slot t inter0 tm with
                      | Some s -> Profile.add_repr t.prof (Chunk.column chunk s)
                      | None -> ()
                    in
                    match Query.pred t.query pid with
                    | Predicate.Select { term = tm; _ } -> slot_repr tm
                    | Predicate.Join { left; right; _ } ->
                      slot_repr left;
                      slot_repr right)
                  pids;
              (* Selection-vector refinement in predicate order — the same
                 accepted set as the scalar short-circuit conjunction. The
                 first predicate is fused into the selection build when it
                 is a plain [col = const] (vector_filters succeeding means
                 every term is an identity projection). *)
              let n = Array.length raw in
              let sel =
                match (Query.pred t.query (List.hd pids), preds) with
                | Predicate.Select { term = tm; value; _ }, _ :: rest ->
                  let slot =
                    match identity_slot t inter0 tm with
                    | Some s -> s
                    | None -> assert false
                  in
                  let sel =
                    Chunk.sel_eq_const (Chunk.column chunk slot) value n
                  in
                  Metric.Counter.inc t.m.m_fused;
                  Profile.set_path t.prof "sel_eq_const";
                  Profile.set_sel_density t.prof ~kept:sel.Chunk.n ~of_:n;
                  List.iter (fun p -> Chunk.refine p sel) rest;
                  sel
                | _ ->
                  Profile.set_path t.prof "refine";
                  let sel = Chunk.sel_all n in
                  List.iter (fun p -> Chunk.refine p sel) preds;
                  sel
              in
              Some (Chunk.gather raw sel)
          end
        in
        let rows =
          match vectorized with
          | Some rows -> rows
          | None ->
            Metric.Counter.inc t.m.m_scalar;
            Profile.set_path t.prof "scalar";
            Profile.add_repr_rows t.prof;
            let filters = List.map (compile_filter t inter0) pids in
            let keep =
              List.fold_left
                (fun acc f row -> acc row && f row)
                (fun _ -> true) filters
            in
            Array.of_seq (Seq.filter keep (Array.to_seq raw))
        in
        spend t (float_of_int (Array.length rows));
        (* Selectivity observations for the repository: each select term on
           this scan evaluated every raw row and kept this fraction. *)
        let n_in = float_of_int (Array.length raw) in
        let frac =
          if n_in = 0.0 then 0.0 else float_of_int (Array.length rows) /. n_in
        in
        List.iter
          (fun pid ->
            match Query.pred t.query pid with
            | Predicate.Select { term = tm; _ } ->
              t.udf_obs <- (tm.Term.id, n_in, frac) :: t.udf_obs
            | Predicate.Join _ -> ())
          pids;
        Intermediate.of_base t.query t.catalog ~rows rel
      end
    in
    Hashtbl.replace t.store mask inter;
    if not (Fault.armed t.fault) then begin
      let table = if inter.Intermediate.rows == raw then Some table else None in
      ignore (chunk_of ?table t inter)
    end;
    inter

(* Orientation of a connecting join predicate: which term keys which side. *)
let orient_pred t lm pid =
  match Query.pred t.query pid with
  | Predicate.Join { left; right; _ } ->
    if Relset.subset (Term.rels left) lm then (left, right) else (right, left)
  | Predicate.Select _ -> assert false

(* Growable output-row buffer (emission order preserved). *)
type rowbuf = { mutable data : Table.row array; mutable len : int }

let rowbuf () = { data = Array.make 1024 [||]; len = 0 }

let rowbuf_push b row =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) [||] in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- row;
  b.len <- b.len + 1

let rowbuf_contents b = Array.init b.len (fun i -> b.data.(i))

(* The scalar join loops — the armed-fault path (checkpoint draw order is
   part of the contract) and the fallback for non-identity key or filter
   terms. Byte-for-byte the row engine's semantics. *)
let hash_join_scalar t (la : Intermediate.t) (rb : Intermediate.t) ~conn
    ~filter_pids ~mask ~offsets ~width =
  let out = ref [] in
  let emit lrow rrow =
    let row = Array.make width Value.Null in
    Array.blit lrow 0 row 0 la.Intermediate.width;
    Array.blit rrow 0 row la.Intermediate.width rb.Intermediate.width;
    row
  in
  (* Filters run on the combined layout; build a template intermediate to
     compile them against. *)
  let combined_proto = { Intermediate.mask; offsets; width; rows = [||] } in
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
    (* Build checkpoint: one draw per hash-join build. *)
    Fault.build t.fault;
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
              out := row :: !out
            end)
          (Hashtbl.find_all table k))
      probe.Intermediate.rows
  end;
  Array.of_list (List.rev !out)

(* Straddling filters as (left-index, right-index) predicates: every term
   must be an identity projection on one side. *)
let pair_filters t (la : Intermediate.t) (rb : Intermediate.t) chunk_la
    chunk_rb filter_pids =
  let exception Fallback in
  let loc tm =
    match tm.Term.args with
    | [ (rel, col) ] when Udf.is_identity tm.Term.udf ->
      if Relset.mem rel la.Intermediate.mask then
        (true, Intermediate.col_index t.query t.catalog la ~rel ~col)
      else (false, Intermediate.col_index t.query t.catalog rb ~rel ~col)
    | _ -> raise Fallback
  in
  let col (on_left, s) = Chunk.column (if on_left then chunk_la else chunk_rb) s in
  try
    Some
      (List.map
         (fun pid ->
           match Query.pred t.query pid with
           | Predicate.Select { term = tm; value; _ } ->
             let ((on_left, _) as l) = loc tm in
             let p = Chunk.eq_const (col l) value in
             fun li ri -> p (if on_left then li else ri)
           | Predicate.Join { left; right; _ } ->
             let ((left_l, _) as l1) = loc left in
             let ((left_r, _) as l2) = loc right in
             let eq = Chunk.eq_cols (col l1) (col l2) in
             fun li ri ->
               eq (if left_l then li else ri) (if left_r then li else ri))
         filter_pids)
  with Fallback -> None

let next_pow2 n =
  let rec go k = if k >= n then k else go (k * 2) in
  go 16

(* Vectorized hash join / cross product over chunked inputs. Returns None
   (fall back to the scalar loop) unless every key and filter term is an
   identity projection. Parity notes: counters, the build checkpoint, the
   per-emitted-row budget draw and the emission order (probe-major,
   reverse-insertion within equal keys — exactly [Hashtbl.find_all]) all
   replicate the scalar loop. *)
let hash_join_fast t (la : Intermediate.t) (rb : Intermediate.t) ~conn
    ~filter_pids ~width =
  let chunk_la = chunk_of t la and chunk_rb = chunk_of t rb in
  match pair_filters t la rb chunk_la chunk_rb filter_pids with
  | None -> None
  | Some accepts ->
    Profile.add_batches t.prof 2;
    let emit li ri =
      let row = Array.make width Value.Null in
      Array.blit la.Intermediate.rows.(li) 0 row 0 la.Intermediate.width;
      Array.blit rb.Intermediate.rows.(ri) 0 row la.Intermediate.width
        rb.Intermediate.width;
      row
    in
    let accept li ri = List.for_all (fun f -> f li ri) accepts in
    let out = rowbuf () in
    (* Per-row budget accounting stays inline (the Timeout point is part of
       the contract); the atomic metric counters are batched and flushed at
       loop exit — including the Timeout exit, so totals are unchanged. *)
    let spent = ref 0.0 and emitted = ref 0.0 in
    let flush_counters () =
      if !spent > 0.0 then Metric.Counter.add t.m.m_budget !spent;
      if !emitted > 0.0 then Metric.Counter.add t.m.m_emitted !emitted;
      spent := 0.0;
      emitted := 0.0
    in
    let emit_accepted li ri =
      t.produced <- t.produced +. 1.0;
      spent := !spent +. 1.0;
      t.bud.remaining <- t.bud.remaining -. 1.0;
      if t.bud.remaining < 0.0 then begin
        flush_counters ();
        raise Timeout
      end;
      emitted := !emitted +. 1.0;
      rowbuf_push out (emit li ri)
    in
    if conn = [] then begin
      Metric.Counter.add t.m.m_probed
        (float_of_int (Intermediate.cardinality la));
      Profile.set_path t.prof "cross";
      let nl = Intermediate.cardinality la
      and nr = Intermediate.cardinality rb in
      for li = 0 to nl - 1 do
        for ri = 0 to nr - 1 do
          if accept li ri then emit_accepted li ri
        done
      done;
      flush_counters ();
      Some (rowbuf_contents out)
    end
    else begin
      let build_is_left =
        Intermediate.cardinality la <= Intermediate.cardinality rb
      in
      let build, probe, cbuild, cprobe =
        if build_is_left then (la, rb, chunk_la, chunk_rb)
        else (rb, la, chunk_rb, chunk_la)
      in
      let keyed =
        let exception Fallback in
        try
          Some
            (List.map
               (fun pid ->
                 let bt, pt = orient_pred t build.Intermediate.mask pid in
                 match
                   (identity_slot t build bt, identity_slot t probe pt)
                 with
                 | Some bs, Some ps ->
                   let bc = Chunk.column cbuild bs
                   and pc = Chunk.column cprobe ps in
                   let bh, ph = Chunk.key_hash_pair bc pc in
                   ((bc, pc), (bh, ph, Chunk.eq_cols bc pc))
                 | _ -> raise Fallback)
               conn)
        with Fallback -> None
      in
      match keyed with
      | None -> None
      | Some keyed ->
        let key_cols, keyed = List.split keyed in
        let keyed = Array.of_list keyed in
        let nk = Array.length keyed in
        (* Native-int combine: only bucket assignment depends on it. The
           single-key case (the common one) skips the combine loop. *)
        let hash_row side i =
          let h = ref 0 in
          for c = 0 to nk - 1 do
            let hb, hp, _ = keyed.(c) in
            let hc = if side then hb i else hp i in
            h := (!h * 0x3C79AC492BA7B653) lxor hc
          done;
          !h
        in
        let hash_build, hash_probe, verify =
          if nk = 1 then
            let hb, hp, eq = keyed.(0) in
            (hb, hp, eq)
          else
            ( hash_row true,
              hash_row false,
              fun bi pi ->
                let ok = ref true in
                let c = ref 0 in
                while !ok && !c < nk do
                  let _, _, eq = keyed.(!c) in
                  (if not (eq bi pi) then ok := false);
                  incr c
                done;
                !ok )
        in
        let nb = Intermediate.cardinality build
        and np = Intermediate.cardinality probe in
        Metric.Counter.add t.m.m_built (float_of_int nb);
        Metric.Counter.add t.m.m_probed (float_of_int np);
        (* Build checkpoint: one draw per hash-join build. *)
        Fault.build t.fault;
        (* A single int key with no straddling filters takes the fully
           fused loop (same pairs, same order — see {!Chunk.join_ints}).
           The path is attributed (and the fused counter bumped) before
           the loop runs, so an early Timeout exit still reports the path
           that was executing. *)
        let fusable =
          match key_cols, accepts with
          | [ (bc, pc) ], [] -> (
            match (bc, pc) with
            | ( Column.Ints { kind = ka; _ },
                Column.Ints { kind = kb; _ } ) ->
              ka = kb
            | _ -> false)
          | _ -> false
        in
        let fused =
          match key_cols, accepts with
          | [ (bc, pc) ], [] when fusable ->
            Metric.Counter.inc t.m.m_fused;
            Profile.set_path t.prof "join_ints";
            let on_index =
              if Profile.live t.prof then begin
                Profile.add_repr t.prof bc;
                Profile.add_repr t.prof pc;
                Some (Profile.observe_chains t.prof)
              end
              else None
            in
            Chunk.join_ints ?on_index bc pc (fun bi pi ->
                let li = if build_is_left then bi else pi
                and ri = if build_is_left then pi else bi in
                emit_accepted li ri)
          | _ -> false
        in
        if fused then begin
          flush_counters ();
          Some (rowbuf_contents out)
        end
        else begin
        Profile.set_path t.prof "chained";
        if Profile.live t.prof then
          List.iter
            (fun (bc, pc) ->
              Profile.add_repr t.prof bc;
              Profile.add_repr t.prof pc)
            key_cols;
        (* Chained-bucket index: chains run latest-insertion-first, the
           same order [Hashtbl.find_all] yields equal keys in. *)
        let sz = next_pow2 (2 * max 1 nb) in
        let msk = sz - 1 in
        let head = Array.make sz (-1) in
        let next = Array.make (max 1 nb) (-1) in
        let hashes = Array.make (max 1 nb) 0 in
        for bi = 0 to nb - 1 do
          let h = hash_build bi in
          hashes.(bi) <- h;
          let b = h land msk in
          next.(bi) <- head.(b);
          head.(b) <- bi
        done;
        if Profile.live t.prof then Profile.observe_chains t.prof ~head ~next;
        for pi = 0 to np - 1 do
          let h = hash_probe pi in
          let c = ref head.(h land msk) in
          while !c >= 0 do
            let bi = !c in
            if hashes.(bi) = h && verify bi pi then begin
              let li = if build_is_left then bi else pi
              and ri = if build_is_left then pi else bi in
              if accept li ri then emit_accepted li ri
            end;
            c := next.(bi)
          done
        done;
        flush_counters ();
        Some (rowbuf_contents out)
        end
    end

let hash_join t (la : Intermediate.t) (rb : Intermediate.t) =
  let q = t.query in
  let conn = Query.connecting q la.Intermediate.mask rb.Intermediate.mask in
  let newly =
    Query.newly_evaluable q ~left:la.Intermediate.mask
      ~right:rb.Intermediate.mask
  in
  let filter_pids = List.filter (fun p -> not (List.mem p conn)) newly in
  let mask, offsets, width = Intermediate.combined_layout la rb in
  let nl = Intermediate.cardinality la and nr = Intermediate.cardinality rb in
  (* Join selectivity is measured against the cross-product size. *)
  let set_io () =
    Profile.set_input t.prof
      ~rows:(float_of_int (nl + nr))
      ~denom:(float_of_int nl *. float_of_int nr);
    if conn = [] then Profile.set_kind t.prof Profile.Cross
  in
  set_io ();
  let rows =
    let fast =
      if Fault.armed t.fault then None
      else hash_join_fast t la rb ~conn ~filter_pids ~width
    in
    match fast with
    | Some rows -> rows
    | None ->
      Metric.Counter.inc t.m.m_scalar;
      (* The failed fast attempt may have left scratch behind (batches,
         key representations): restart the node's detail for the path
         that will actually produce the rows. *)
      Profile.reset t.prof;
      set_io ();
      Profile.set_path t.prof (if conn = [] then "cross-scalar" else "scalar");
      Profile.add_repr_rows t.prof;
      hash_join_scalar t la rb ~conn ~filter_pids ~mask ~offsets ~width
  in
  { Intermediate.mask; offsets; width; rows }

let stats_pass t (inter : Intermediate.t) =
  (* One extra pass over the materialized input computes an HLL distinct
     count for every predicate-relevant term it can evaluate. *)
  let card = Intermediate.cardinality inter in
  Ctx.with_span t.tel "exec.sigma"
    ~attrs:[ ("objects", Span.Int card) ]
    (fun _ ->
      let vec = not (Fault.armed t.fault) in
      Profile.set_input t.prof ~rows:(float_of_int card)
        ~denom:(float_of_int card);
      (* Attributed before the budget draw so a Σ pass that trips Timeout
         still reports which path it was on. *)
      Profile.set_path t.prof (if vec then "column" else "row");
      spend t (float_of_int card);
      Metric.Counter.add t.m.m_sigma (float_of_int card);
      t.sigma_total <- t.sigma_total +. float_of_int card;
      let terms = Query.interesting_terms t.query inter.Intermediate.mask in
      let row_terms = ref 0 and col_terms = ref 0 in
      let ds =
        List.map
          (fun tm ->
            let hll = Hyperloglog.create ~p:14 () in
            (match (if vec then identity_slot t inter tm else None) with
            | Some slot ->
              (* Column path: the HLL register updates are the same values in
                 the same order as hashing the boxed rows. *)
              let col = Chunk.column (chunk_of t inter) slot in
              if !col_terms = 0 then Profile.add_batches t.prof 1;
              incr col_terms;
              Profile.add_repr t.prof col;
              for i = 0 to card - 1 do
                Hyperloglog.add_hash hll (Column.value_hash col i)
              done
            | None ->
              incr row_terms;
              Profile.add_repr_rows t.prof;
              let ev = compile_term t inter tm in
              Array.iter
                (fun row -> Hyperloglog.add_hash hll (Value.hash (ev row)))
                inter.Intermediate.rows);
            let d = Float.max 1.0 (Float.round (Hyperloglog.count hll)) in
            t.udf_obs <-
              (tm.Term.id, float_of_int card,
               if card = 0 then 0.0 else d /. float_of_int card)
              :: t.udf_obs;
            (tm.Term.id, d))
          terms
      in
      (* A Σ pass that had to evaluate any term per-row (opaque UDF or an
         armed fault plan) counts as one scalar fallback. *)
      if !row_terms > 0 then begin
        Metric.Counter.inc t.m.m_scalar;
        if !col_terms > 0 then Profile.set_path t.prof "mixed"
        else Profile.set_path t.prof "row"
      end;
      ds)

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
  (* One plan node's materialization, profiled: the self time (children
     are materialized outside [f]) lands on the exec.node_ms histogram,
     the profile collector freezes a node — complete or not — on every
     exit path, and a non-Null tracer gets one child span per plan node
     under exec.execute, so Perfetto timelines show the operator
     breakdown. Cache hits never pass through here, matching
     [obs_nodes]. *)
  let run_node : 'a. Expr.t -> Profile.kind -> rows_out:('a -> float)
      -> (unit -> 'a) -> 'a =
   fun e default_kind ~rows_out f ->
    Profile.reset t.prof;
    let b0 = t.produced in
    let t0 = Timer.now () in
    let finish span ~complete ~out =
      let dt = Timer.now () -. t0 in
      Metric.Histogram.observe t.m.h_node (dt *. 1000.0);
      Profile.finish t.prof ~expr:e ~mask:(Expr.mask e) ~default_kind
        ~rows_out:out ~budget:(t.produced -. b0) ~complete ~seconds:dt;
      match span with
      | None -> ()
      | Some s ->
        Span.set_attr s "rows_out" (Span.Float out);
        Span.set_attr s "complete" (Span.Bool complete)
    in
    let body span =
      match f () with
      | v ->
        finish span ~complete:true ~out:(rows_out v);
        v
      | exception ex ->
        (* Timeout / Deadline.Expired / Fault.Injected mid-operator: the
           in-flight node is still flushed (rows_out 0, budget = what it
           drew) so profiles stay consistent with the exec.* counters. *)
        finish span ~complete:false ~out:0.0;
        raise ex
    in
    if Ctx.tracing t.tel then
      Ctx.with_span t.tel "exec.node"
        ~attrs:[ ("node", Span.Str (Expr.describe t.query e)) ]
        (fun s -> body (Some s))
    else body None
  in
  let inter_card inter = float_of_int (Intermediate.cardinality inter) in
  let rec go ~is_root e : Intermediate.t =
    (* Batch boundary: one cooperative deadline check per plan node. *)
    Deadline.check t.deadline;
    match e with
    | Expr.Stats inner ->
      let inter = go ~is_root inner in
      let card = float_of_int (Intermediate.cardinality inter) in
      let ds =
        run_node e Profile.Sigma ~rows_out:(fun _ -> card) (fun () ->
            stats_pass t inter)
      in
      cost := !cost +. card;
      stats_cost := !stats_cost +. card;
      obs_distincts := ds @ !obs_distincts;
      inter
    | Expr.Leaf m -> (
      match Hashtbl.find_opt t.store m with
      | Some inter -> inter
      | None -> (
        match Relset.to_list m with
        | [ i ] ->
          let inter =
            run_node e Profile.Scan ~rows_out:inter_card (fun () ->
                scan_base t i)
          in
          let c = float_of_int (Intermediate.cardinality inter) in
          obs_counts := (m, c) :: !obs_counts;
          obs_nodes := (e, c) :: !obs_nodes;
          inter
        | _ -> invalid_arg "Executor.execute: unmaterialized intermediate leaf"))
    | Expr.Join (a, b) -> (
      let m = Expr.mask e in
      match Hashtbl.find_opt t.store m with
      | Some inter -> inter
      | None ->
        let ia = go ~is_root:false a in
        let ib = go ~is_root:false b in
        let inter =
          run_node e Profile.Join ~rows_out:inter_card (fun () ->
              hash_join t ia ib)
        in
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
  match materialized t (Expr.mask expr) with
  | Some inter -> inter.Intermediate.rows
  | None -> invalid_arg "Executor.result_rows: not materialized"
