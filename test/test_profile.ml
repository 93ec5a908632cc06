open Monsoon_util
open Monsoon_storage
open Monsoon_relalg
open Monsoon_exec
open Monsoon_telemetry
module Driver = Monsoon_core.Driver

(* Same two-table fixture as test_exec: R(k, v) ⋈ S(k) on k, optional
   select on R.v. *)
let two_table_query ?(select_const = None) () =
  let b = Query.Builder.create ~name:"two" in
  let r = Query.Builder.rel b ~table:"R" ~alias:"R" in
  let s = Query.Builder.rel b ~table:"S" ~alias:"S" in
  let fr = Query.Builder.term b (Udf.identity "k") [ (r, "k") ] in
  let fs = Query.Builder.term b (Udf.identity "k") [ (s, "k") ] in
  Query.Builder.join_pred b fr fs;
  (match select_const with
  | Some v ->
    let fv = Query.Builder.term b (Udf.identity "v") [ (r, "v") ] in
    Query.Builder.select_pred b fv (Value.Int v)
  | None -> ());
  Query.Builder.build b

let two_table_catalog rng ~n_r ~n_s ~d =
  let cat = Catalog.create () in
  Catalog.add cat
    (Fixtures.make_table rng ~name:"R" ~cols:[ ("k", d); ("v", 3) ] n_r);
  Catalog.add cat (Fixtures.make_table rng ~name:"S" ~cols:[ ("k", d) ] n_s);
  cat

(* Hostile representations (same shape as test_differential): NaN / -0.
   float keys, a dictionary string column, and a Null-poisoned int column
   that demotes to the boxed fallback. *)
let tricky_fixture () =
  let cat = Catalog.create () in
  let fvals = [| 1.5; Float.nan; -0.0; 0.0; 2.5; Float.nan; 1.5 |] in
  let svals = [| "ash"; "birch"; "cedar" |] in
  let mk name n offset =
    let schema =
      Schema.make
        [ { Schema.name = "f"; ty = Value.TFloat };
          { Schema.name = "s"; ty = Value.TStr };
          { Schema.name = "n"; ty = Value.TInt } ]
    in
    Table.of_row_array ~name schema
      (Array.init n (fun i ->
           [| Value.Float fvals.((i + offset) mod Array.length fvals);
              Value.Str svals.((i + offset) mod Array.length svals);
              (if (i + offset) mod 7 = 0 then Value.Null else Value.Int (i mod 5))
           |]))
  in
  Catalog.add cat (mk "A" 60 0);
  Catalog.add cat (mk "B" 45 3);
  cat

let tricky_query ~on ~select =
  let b = Query.Builder.create ~name:(Printf.sprintf "tricky-%s" on) in
  let a = Query.Builder.rel b ~table:"A" ~alias:"A" in
  let c = Query.Builder.rel b ~table:"B" ~alias:"B" in
  let ta = Query.Builder.term b (Udf.identity on) [ (a, on) ] in
  let tb = Query.Builder.term b (Udf.identity on) [ (c, on) ] in
  Query.Builder.join_pred b ta tb;
  (match select with
  | Some (col, v) ->
    let ts = Query.Builder.term b (Udf.identity col) [ (a, col) ] in
    Query.Builder.select_pred b ts v
  | None -> ());
  Query.Builder.build b

let full_join = Expr.join (Expr.base 0) (Expr.base 1)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Every call's node records, in call order. *)
let run_profiled ?env cat q exprs =
  let prof = Profile.create () in
  let exec = Executor.create ~profile:prof ?env cat q (Executor.budget 1e7) in
  List.concat_map
    (fun e ->
      ignore (Executor.execute exec e);
      Executor.nodes exec)
    exprs

let profile_of (n : Executor.node) = Option.get n.Executor.profile

let fingerprints q nodes =
  String.concat "\n"
    (List.map
       (fun (n : Executor.node) ->
         Profile.fingerprint q n.Executor.expr (profile_of n))
       nodes)

let std_exprs = [ Expr.stats (Expr.base 0); full_join ]

let profile_fingerprint ?env () =
  let rng = Rng.create 42 in
  let q = two_table_query ~select_const:(Some 1) () in
  let cat = two_table_catalog rng ~n_r:200 ~n_s:150 ~d:10 in
  fingerprints q (run_profiled ?env cat q std_exprs)

(* --- Differential: profile rows/selectivity agree with the scalar
   oracle --- *)

let test_rows_match_row_engine () =
  let rng = Rng.create 41 in
  let q = two_table_query ~select_const:(Some 1) () in
  let cat = two_table_catalog rng ~n_r:300 ~n_s:200 ~d:12 in
  let nodes = run_profiled cat q std_exprs in
  let old_exec = Row_engine.create cat q (Row_engine.budget 1e7) in
  let old_nodes =
    List.concat_map
      (fun e ->
        let _, obs = Row_engine.execute old_exec e in
        obs.Row_engine.obs_nodes)
      std_exprs
  in
  Alcotest.(check bool) "profiled nodes recorded" true (nodes <> []);
  List.iter
    (fun (n : Executor.node) ->
      match (profile_of n).Recorder.p_kind with
      | "sigma" -> ()
      | _ ->
        let expected =
          match
            List.find_opt
              (fun (e, _) -> Expr.equal e n.Executor.expr)
              old_nodes
          with
          | Some (_, c) -> c
          | None ->
            Alcotest.failf "no row-engine observation for %s"
              (Expr.describe q n.Executor.expr)
        in
        Alcotest.(check (float 0.0))
          ("rows_out vs row engine: " ^ Expr.describe q n.Executor.expr)
          expected (profile_of n).Recorder.p_rows_out;
        Alcotest.(check bool) "selectivity in [0,1]" true
          ((profile_of n).Recorder.p_selectivity >= 0.0
          && (profile_of n).Recorder.p_selectivity <= 1.0);
        Alcotest.(check bool) "complete" true
          (profile_of n).Recorder.p_complete)
    nodes

(* --- Byte identity: across worker domains, and audited vs unaudited --- *)

let test_jobs_invariance () =
  let seq = profile_fingerprint () in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> profile_fingerprint ()))
  in
  List.iter
    (fun d ->
      Alcotest.(check string) "identical across domains" seq (Domain.join d))
    domains

let test_audit_invariance () =
  let plain = profile_fingerprint () in
  let buf = Span.memory_buffer () in
  let tel =
    Ctx.with_trace_id
      (Ctx.create ~sink:(Span.Memory buf) ~recorder:(Recorder.create ()) ())
      "t-prof-audit"
  in
  let audited = profile_fingerprint ~env:(Ctx.to_env tel) () in
  Alcotest.(check string) "audited profile byte-identical" plain audited

(* --- Representation mix and path attribution --- *)

let join_node nodes =
  profile_of
    (List.find
       (fun n -> (profile_of n).Recorder.p_kind = Profile.kind_label Profile.Join)
       nodes)

let scan_nodes nodes =
  List.map profile_of nodes
  |> List.filter (fun p -> p.Recorder.p_kind = Profile.kind_label Profile.Scan)

let repr p = String.split_on_char ',' p.Recorder.p_repr

let test_repr_ints () =
  let rng = Rng.create 43 in
  let q = two_table_query ~select_const:(Some 1) () in
  let cat = two_table_catalog rng ~n_r:200 ~n_s:150 ~d:10 in
  let nodes = run_profiled cat q [ full_join ] in
  let j = join_node nodes in
  Alcotest.(check string) "int join is fused" "join_ints" j.Recorder.p_path;
  Alcotest.(check (list string))
    "both join inputs are int columns" [ "ints"; "ints" ] (repr j);
  Alcotest.(check bool) "chain stats observed" true (j.Recorder.p_chain_max >= 1);
  let filtered =
    List.find
      (fun p -> p.Recorder.p_path = "sel_eq_const")
      (scan_nodes nodes)
  in
  Alcotest.(check bool) "filtered scan reads an int column" true
    (List.mem "ints" (repr filtered));
  Alcotest.(check bool) "selection density in [0,1]" true
    (filtered.Recorder.p_sel_density >= 0.0
    && filtered.Recorder.p_sel_density <= 1.0)

let test_repr_dict_and_boxed () =
  let cat = tricky_fixture () in
  (* Dictionary select: join on f (floats), select A.s = "birch". *)
  let q = tricky_query ~on:"f" ~select:(Some ("s", Value.Str "birch")) in
  let nodes = run_profiled cat q [ full_join ] in
  let a_scan =
    List.find
      (fun p -> p.Recorder.p_path = "sel_eq_const")
      (scan_nodes nodes)
  in
  Alcotest.(check bool) "dict column in scan mix" true
    (List.mem "dict" (repr a_scan));
  let j = join_node nodes in
  Alcotest.(check string) "float join runs the int kernel on codes"
    "join_ints" j.Recorder.p_path;
  Alcotest.(check bool) "float columns in join mix" true
    (List.mem "floats" (repr j));
  (* Null-poisoned int column: demoted to boxed, interned into codes. *)
  let qn = tricky_query ~on:"n" ~select:None in
  let jn = join_node (run_profiled cat qn [ full_join ]) in
  Alcotest.(check string) "boxed join runs the int kernel on codes"
    "join_ints" jn.Recorder.p_path;
  Alcotest.(check bool) "boxed column in join mix" true
    (List.mem "boxed" (repr jn))

let test_disabled_collector_noop () =
  let p = Profile.disabled in
  Profile.reset p;
  Profile.set_kind p Profile.Join;
  Profile.set_path p "join_ints";
  Profile.set_input p ~rows:10.0 ~denom:100.0;
  Profile.add_batches p 3;
  Profile.add_repr_rows p;
  Profile.set_sel_density p ~kept:1 ~of_:2;
  Alcotest.(check bool) "no profile frozen" true
    (Profile.finish p ~default_kind:Profile.Scan ~rows_out:10.0 ~budget:0.0
       ~complete:true ~seconds:0.0
    = None);
  Alcotest.(check bool) "disabled stays dead" false (Profile.live p)

(* --- Early-exit paths: Timeout / Deadline / Fault flush consistently --- *)

let test_timeout_flushes_profile_and_counters () =
  let rng = Rng.create 44 in
  let q = two_table_query () in
  (* d = 1: the join is a 500×500 cross blowup; budget 1000 dies inside. *)
  let cat = two_table_catalog rng ~n_r:500 ~n_s:500 ~d:1 in
  let tel = Ctx.create () in
  let prof = Profile.create () in
  let env = Ctx.to_env tel in
  let exec = Executor.create ~profile:prof ~env cat q (Executor.budget 1000.0) in
  Alcotest.check_raises "timeout" Executor.Timeout (fun () ->
      ignore (Executor.execute exec full_join));
  let nodes = Executor.nodes exec in
  Alcotest.(check int) "two scans + the dying join" 3 (List.length nodes);
  let last = profile_of (List.nth nodes 2) in
  Alcotest.(check bool) "join flushed incomplete" false last.Recorder.p_complete;
  Alcotest.(check (float 0.0)) "incomplete rows_out is 0" 0.0
    last.Recorder.p_rows_out;
  Alcotest.(check bool) "the dying node drew budget" true
    (last.Recorder.p_budget > 0.0);
  (* Counter parity: exec.budget_spent was flushed before the raise. *)
  let spent = Metric.Counter.value (Ctx.counter tel "exec.budget_spent") in
  Alcotest.(check (float 0.0)) "budget counter flushed on timeout"
    (Executor.total_produced exec)
    spent;
  (* Per-node budget attribution never exceeds the executor total. *)
  let attributed =
    List.fold_left (fun a n -> a +. (profile_of n).Recorder.p_budget) 0.0
      nodes
  in
  Alcotest.(check bool) "attributed budget bounded" true
    (attributed <= Executor.total_produced exec +. 1e-9);
  (* One exec.node_ms observation per flushed node, incomplete included. *)
  let h = Ctx.histogram tel "exec.node_ms" in
  Alcotest.(check int) "node_ms histogram count" 3 (Metric.Histogram.count h)

let test_deadline_leaves_no_phantom_node () =
  let rng = Rng.create 45 in
  let q = two_table_query () in
  let cat = two_table_catalog rng ~n_r:100 ~n_s:100 ~d:5 in
  let prof = Profile.create () in
  let dl = Deadline.after 0.0 in
  let env = Env.with_deadline Env.default dl in
  let exec = Executor.create ~profile:prof ~env cat q (Executor.budget 1e6) in
  Alcotest.check_raises "deadline" Deadline.Expired (fun () ->
      ignore (Executor.execute exec full_join));
  Deadline.cancel dl;
  (* The cooperative check fires at the node boundary, before any
     operator starts: no half-recorded scratch may leak. *)
  Alcotest.(check int) "no phantom nodes" 0
    (List.length (Executor.nodes exec))

let test_fault_flushes_incomplete_node () =
  let rng = Rng.create 46 in
  let q = two_table_query ~select_const:(Some 1) () in
  let cat = two_table_catalog rng ~n_r:100 ~n_s:100 ~d:5 in
  let prof = Profile.create () in
  let fault =
    Fault.plan { Fault.no_faults with Fault.build_rate = 1.0 } (Rng.create 7)
  in
  let env = Env.with_fault Env.default fault in
  let exec = Executor.create ~profile:prof ~env cat q (Executor.budget 1e6) in
  (try
     ignore (Executor.execute exec full_join);
     Alcotest.fail "expected an injected fault"
   with Fault.Injected _ -> ());
  let nodes = Executor.nodes exec in
  Alcotest.(check bool) "dying node flushed" true (nodes <> []);
  let last = profile_of (List.nth nodes (List.length nodes - 1)) in
  Alcotest.(check bool) "flushed incomplete" false last.Recorder.p_complete;
  Alcotest.(check string) "the join's build faulted" "hash-join"
    last.Recorder.p_kind;
  (* Checkpoints come first: the faulted operator drew no budget. *)
  Alcotest.(check (float 0.0)) "nothing drawn" 0.0 last.Recorder.p_budget

(* --- Golden explain operator table --- *)

let golden_join =
  { Recorder.p_kind = "hash-join"; p_path = "join_ints"; p_repr = "ints,ints";
    p_rows_in = 450.0; p_rows_out = 30.0; p_selectivity = 0.001;
    p_batches = 2; p_sel_density = 0.001; p_chain_max = 3; p_chain_mean = 1.5;
    p_budget = 30.0; p_complete = true; p_ms = 0.75 }

let golden_scan =
  { Recorder.p_kind = "scan"; p_path = "sel_eq_const"; p_repr = "ints";
    p_rows_in = 300.0; p_rows_out = 150.0; p_selectivity = 0.5;
    p_batches = 1; p_sel_density = 0.25; p_chain_max = 0; p_chain_mean = 0.0;
    p_budget = 150.0; p_complete = false; p_ms = 0.25 }

let golden_node expr depth profile observed =
  { Recorder.node_expr = expr; node_mask = 3; node_depth = depth;
    node_predicted = Some 10.0; node_observed = Some observed;
    node_q_error = Some 3.0; node_profile = profile }

let test_golden_operator_table () =
  let r = Recorder.create () in
  Recorder.record r
    (Recorder.Executed
       { step = 0;
         nodes =
           [ golden_node "(R ⨝ S)" 0 (Some golden_join) 30.0;
             golden_node "R" 1 (Some golden_scan) 150.0 ];
         cost = 30.0;
         timed_out = false });
  let rendered = Explain.plan_tables r in
  Alcotest.(check bool) "profile table present" true
    (contains rendered "Operator profile for step 0");
  let expected =
    String.concat "\n"
      [ "Operator profile for step 0";
        "  Plan node  Op         Path                   Time %  ms     \
         Rows in  Rows out  Sel    Dens   Repr       Chain ";
        "  ---------  ---------  ---------------------  ------  -----  \
         -------  --------  -----  -----  ---------  ------";
        "  (R \xe2\xa8\x9d S)  hash-join  join_ints              75.0    0.750  \
         450      30        0.001  0.001  ints,ints  3/1.50";
        "    R        scan       sel_eq_const (killed)  25.0    0.250  \
         300      150       0.5    0.25   ints       -     " ]
  in
  Alcotest.(check bool) "golden rows rendered" true (contains rendered expected);
  (* Unprofiled events render byte-identically to the pre-profile shape. *)
  let r2 = Recorder.create () in
  Recorder.record r2
    (Recorder.Executed
       { step = 0;
         nodes = [ golden_node "(R ⨝ S)" 0 None 30.0 ];
         cost = 30.0;
         timed_out = false });
  Alcotest.(check bool) "no profile table without profiles" false
    (contains (Explain.plan_tables r2) "Operator profile")

(* --- End to end: one driver run, one trace id, two panes agree --- *)

let test_panes_agree_on_one_trace () =
  let buf = Span.memory_buffer () in
  let recorder = Recorder.create () in
  let tel =
    Ctx.with_trace_id
      (Ctx.create ~sink:(Span.Memory buf) ~recorder ())
      "t-obs-1"
  in
  let prof = Profile.create () in
  let env = Ctx.to_env tel in
  let rng = Rng.create 51 in
  let q = two_table_query ~select_const:(Some 1) () in
  let cat = two_table_catalog rng ~n_r:200 ~n_s:150 ~d:10 in
  let config = Driver.default_config ~rng:(Rng.create 52) in
  let (_ : Driver.outcome) = Driver.run ~profile:prof ~env config cat q in
  (* Pull the join node's profile out of the recorder. *)
  let profiled =
    List.concat_map
      (function
        | Recorder.Executed { nodes; _ } ->
          List.filter_map
            (fun (n : Recorder.exec_node) ->
              Option.map (fun p -> (n, p)) n.Recorder.node_profile)
            nodes
        | _ -> [])
      (Recorder.events recorder)
  in
  Alcotest.(check bool) "recorder carries profiles" true (profiled <> []);
  let n, p =
    List.find (fun ((_, p) : _ * Recorder.node_profile) ->
        p.Recorder.p_kind = "hash-join")
      profiled
  in
  (* Pane 1: explain renders the operator table with this node. *)
  let report = Explain.report ~trace:"t-obs-1" recorder in
  Alcotest.(check bool) "explain shows the operator table" true
    (contains report "Operator profile");
  Alcotest.(check bool) "explain shows the join path" true
    (contains report p.Recorder.p_path);
  (* Pane 2: the span timeline has one exec.node child per operator,
     joined on the same expression and trace id. *)
  let spans = Span.buffer_spans buf in
  let node_spans =
    List.filter (fun (s : Span.t) -> s.Span.name = "exec.node") spans
  in
  Alcotest.(check bool) "exec.node spans emitted" true (node_spans <> []);
  let attr s k = List.assoc_opt k s.Span.attrs in
  let joined =
    List.find_opt
      (fun s ->
        attr s "node" = Some (Span.Str n.Recorder.node_expr)
        && attr s "trace" = Some (Span.Str "t-obs-1")
        && attr s "rows_out" = Some (Span.Float p.Recorder.p_rows_out))
      node_spans
  in
  let joined =
    match joined with
    | Some s -> s
    | None -> Alcotest.fail "no exec.node span joins expr + trace + rows"
  in
  (* The operator span nests under its exec.execute parent. *)
  let parent_name =
    match joined.Span.parent with
    | None -> "-"
    | Some pid -> (
      match List.find_opt (fun (s : Span.t) -> s.Span.id = pid) spans with
      | Some s -> s.Span.name
      | None -> "-")
  in
  Alcotest.(check string) "operator span nests under exec.execute"
    "exec.execute" parent_name

(* --- Attribution: each operator profile is counted once --- *)

let test_profile_attached_once () =
  (* TPC-H tq1 as in the qlog plan-table golden: its step-2 EXECUTE plans
     (c ⨝ o) and Σ(o), so the scan of o occurs twice but runs once. *)
  let w =
    Monsoon_workloads.Tpch.workload
      { Monsoon_workloads.Tpch.seed = 11; scale = 0.05;
        skew = Monsoon_workloads.Tpch.Plain }
  in
  let q = Monsoon_workloads.Workload.find_query w "tq1" in
  let rng =
    Monsoon_harness.Runner.cell_rng ~seed:11 ~strategy:"Monsoon" ~query:"tq1"
  in
  let config =
    { (Driver.default_config ~rng) with
      Driver.budget = 1e6;
      mcts =
        { (Monsoon_mcts.Mcts.default_config ~rng) with
          Monsoon_mcts.Mcts.iterations = 60 } }
  in
  let recorder = Recorder.create () in
  let prof = Profile.create () in
  let tel = Ctx.with_recorder (Ctx.null ()) recorder in
  let env = Ctx.to_env tel in
  let (_ : Driver.outcome) =
    Driver.run ~profile:prof ~env config w.Monsoon_workloads.Workload.catalog q
  in
  let executed =
    List.filter_map
      (function Recorder.Executed { nodes; _ } -> Some nodes | _ -> None)
      (Recorder.events recorder)
  in
  let shared =
    List.exists
      (fun nodes ->
        let exprs = List.map (fun n -> n.Recorder.node_expr) nodes in
        List.length (List.sort_uniq compare exprs) < List.length exprs)
      executed
  in
  Alcotest.(check bool) "some EXECUTE lists a node twice" true shared;
  let profiled =
    List.length
      (List.filter
         (fun n -> n.Recorder.node_profile <> None)
         (List.concat executed))
  in
  (* One exec.node_ms observation per executed plan node. *)
  Alcotest.(check int) "profiled rows = executed plan nodes"
    (Metric.Histogram.count (Ctx.histogram tel "exec.node_ms"))
    profiled

let () =
  Alcotest.run "profile"
    [ ( "differential",
        [ Alcotest.test_case "rows match the row engine" `Quick
            test_rows_match_row_engine ] );
      ( "determinism",
        [ Alcotest.test_case "byte-identical across domains" `Quick
            test_jobs_invariance;
          Alcotest.test_case "byte-identical audited vs not" `Quick
            test_audit_invariance ] );
      ( "representation",
        [ Alcotest.test_case "ints: fused join + fused select" `Quick
            test_repr_ints;
          Alcotest.test_case "dict select, float and boxed joins" `Quick
            test_repr_dict_and_boxed;
          Alcotest.test_case "disabled collector records nothing" `Quick
            test_disabled_collector_noop ] );
      ( "early-exit",
        [ Alcotest.test_case "timeout flushes profile + counters" `Quick
            test_timeout_flushes_profile_and_counters;
          Alcotest.test_case "expired deadline leaves no phantom" `Quick
            test_deadline_leaves_no_phantom_node;
          Alcotest.test_case "injected fault flushes incomplete" `Quick
            test_fault_flushes_incomplete_node ] );
      ( "panes",
        [ Alcotest.test_case "golden explain operator table" `Quick
            test_golden_operator_table;
          Alcotest.test_case "explain + spans agree" `Quick
            test_panes_agree_on_one_trace;
          Alcotest.test_case "each profile attached once" `Quick
            test_profile_attached_once ] ) ]
