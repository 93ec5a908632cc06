(* The persistent cross-query statistics repository (lib/stats_repo):
   fingerprint determinism, flush → reopen round trips, the warm-start
   fallback ladder, snapshot / retention / diff maintenance, and the
   load-bearing invariant that an empty or absent repository never changes
   planning (byte-identical runner rows). *)

open Monsoon_relalg
open Monsoon_stats
open Monsoon_baselines
open Monsoon_workloads
open Monsoon_harness
module Stats_repo = Monsoon_stats_repo.Stats_repo

let fresh_path =
  let n = ref 0 in
  fun () ->
    incr n;
    let p =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "monsoon-test-repo-%d-%d.jsonl" (Unix.getpid ()) !n)
    in
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      (p
      :: (try
            Sys.readdir (Filename.dirname p)
            |> Array.to_list
            |> List.filter_map (fun f ->
                   if
                     String.length f > String.length (Filename.basename p)
                     && String.sub f 0 (String.length (Filename.basename p))
                        = Filename.basename p
                   then Some (Filename.concat (Filename.dirname p) f)
                   else None)
          with Sys_error _ -> []));
    p

let q = Fixtures.sec23_query ()
let term i = Query.term q i

let contains s needle =
  let rec search i =
    i + String.length needle <= String.length s
    && (String.sub s i (String.length needle) = needle || search (i + 1))
  in
  search 0

(* --- Fingerprints --- *)

let test_fingerprints () =
  Alcotest.(check string) "count key carries query + mask"
    "sec2.3|R:R,S:S"
    (Stats_repo.count_key q (Relset.union (Relset.singleton 0) (Relset.singleton 1)));
  Alcotest.(check string) "distinct key is query-scoped"
    "sec2.3|id(a)(R.a)"
    (Stats_repo.distinct_key q (term 0));
  Alcotest.(check string) "udf key matches distinct key"
    (Stats_repo.distinct_key q (term 3))
    (Stats_repo.udf_key q (term 3))

(* --- Flush / reopen round trip and the fallback ladder --- *)

let test_roundtrip_and_ladder () =
  let path = fresh_path () in
  let writer = Stats_repo.open_ path in
  (* Term 0: three identical measurements — tight history. Term 1: wildly
     dispersed history. Term 2: never flushed. Term 3: UDF observations. *)
  for _ = 1 to 3 do
    ignore
      (Stats_repo.flush_query writer ~query:q
         ~counts:[ (Relset.singleton 0, 1000.0) ]
         ~distincts:[ (0, 5.0) ]
         ~udf:[ (3, 1000.0, 0.25) ])
  done;
  ignore
    (Stats_repo.flush_query writer ~query:q ~counts:[]
       ~distincts:[ (1, 1.0) ] ~udf:[]);
  ignore
    (Stats_repo.flush_query writer ~query:q ~counts:[]
       ~distincts:[ (1, 100.0) ] ~udf:[]);
  (* The writer's baseline is frozen at open: it must not see its own
     flushes (jobs-invariance of warm lookups). *)
  (match Stats_repo.lookup_distinct writer ~query:q ~term:(term 0) with
  | Stats_repo.Cold -> ()
  | _ -> Alcotest.fail "writer saw its own flushes");
  let repo = Stats_repo.open_ path in
  (match Stats_repo.lookup_distinct repo ~query:q ~term:(term 0) with
  | Stats_repo.Known d -> Alcotest.(check (float 1e-9)) "tight -> Known" 5.0 d
  | _ -> Alcotest.fail "tight history should seed a Known value");
  (match Stats_repo.lookup_distinct repo ~query:q ~term:(term 1) with
  | Stats_repo.Hint _ -> ()
  | _ -> Alcotest.fail "dispersed history should fall back to a Hint prior");
  (match Stats_repo.lookup_distinct repo ~query:q ~term:(term 2) with
  | Stats_repo.Cold -> ()
  | _ -> Alcotest.fail "absent history must stay Cold");
  (match Stats_repo.lookup_udf repo ~query:q ~term:(term 3) with
  | Some (evals, kept) ->
    Alcotest.(check (float 1e-9)) "mean evals" 1000.0 evals;
    Alcotest.(check (float 1e-9)) "mean kept fraction" 0.25 kept
  | None -> Alcotest.fail "udf history should resolve");
  Alcotest.(check (option string)) "udf of unmeasured term misses" None
    (Option.map (fun _ -> "hit")
       (Stats_repo.lookup_udf repo ~query:q ~term:(term 0)))

(* Line order must not matter: a repository written with --jobs 4 is a
   permutation of the sequential one, and every reader folds in canonical
   order. *)
let test_order_invariance () =
  let flush repo (tid, d) =
    ignore
      (Stats_repo.flush_query repo ~query:q ~counts:[] ~distincts:[ (tid, d) ]
         ~udf:[])
  in
  let obs = [ (0, 7.0); (1, 3.0); (0, 9.0); (1, 11.0) ] in
  let p1 = fresh_path () and p2 = fresh_path () in
  List.iter (flush (Stats_repo.open_ p1)) obs;
  List.iter (flush (Stats_repo.open_ p2)) (List.rev obs);
  let r1 = Stats_repo.open_ p1 and r2 = Stats_repo.open_ p2 in
  Alcotest.(check bool) "aggregates identical" true
    (Stats_repo.entries r1 = Stats_repo.entries r2);
  (* [show]'s header names the file; the rows below it must match. *)
  let rows s =
    match String.index_opt s '\n' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s
  in
  Alcotest.(check string) "renderings identical below the header"
    (rows (Stats_repo.show r1))
    (rows (Stats_repo.show r2))

(* --- Snapshots, retention, diff --- *)

let test_snapshots_gc_diff () =
  let path = fresh_path () in
  let repo = Stats_repo.open_ path in
  ignore
    (Stats_repo.flush_query repo ~query:q
       ~counts:[ (Relset.singleton 0, 1000.0) ]
       ~distincts:[ (0, 5.0) ] ~udf:[]);
  let s1 =
    match Stats_repo.snapshot repo with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  ignore
    (Stats_repo.flush_query repo ~query:q ~counts:[] ~distincts:[ (1, 8.0) ]
       ~udf:[]);
  let s2 =
    match Stats_repo.snapshot repo with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (list string)) "snapshots oldest first" [ s1; s2 ]
    (Stats_repo.snapshots repo);
  (match Stats_repo.diff ~old_:s1 ~new_:s2 with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
    Alcotest.(check bool) "one new key" true (contains report "1 new");
    Alcotest.(check bool) "nothing lost" true (contains report "0 lost");
    (* Deterministic: the same pair diffs to the same bytes. *)
    (match Stats_repo.diff ~old_:s1 ~new_:s2 with
    | Ok again -> Alcotest.(check string) "diff is byte-stable" report again
    | Error msg -> Alcotest.fail msg));
  (match Stats_repo.diff ~old_:s2 ~new_:s2 with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
    Alcotest.(check bool) "self-diff reports no drift" true
      (contains report "0 new, 0 changed, 0 lost"));
  Alcotest.(check int) "gc removes the older snapshot" 1
    (Stats_repo.gc repo ~keep:1);
  Alcotest.(check (list string)) "newest survives" [ s2 ]
    (Stats_repo.snapshots repo);
  Alcotest.(check int) "gc is idempotent" 0 (Stats_repo.gc repo ~keep:1)

(* --- An empty / absent repository never changes planning --- *)

let deterministic_fingerprint (rows : Runner.row list) =
  List.map
    (fun (r : Runner.row) ->
      ( r.Runner.strategy,
        List.map
          (fun (c : Runner.cell) ->
            ( c.Runner.query,
              Option.map
                (fun (o : Strategy.outcome) ->
                  ( o.Strategy.cost, o.Strategy.timed_out,
                    o.Strategy.stats_cost, o.Strategy.result_card,
                    o.Strategy.plan ))
                c.Runner.outcome ))
          r.Runner.cells ))
    rows

let run_small_suite ?stats_repo ~seed () =
  let w = Tpch.workload { Tpch.seed = 11; scale = 0.05; skew = Tpch.Plain } in
  let config =
    { Runner.default_config with
      Runner.budget = 1e6;
      seed;
      queries = Some [ "tq1"; "tq2" ];
      jobs = 1 }
  in
  Runner.run_suite config
    [ Strategy.monsoon ~iterations:40 ~scale_with_size:false ?stats_repo
        Prior.spike_and_slab ]
    w

let prop_empty_repo_is_invisible =
  QCheck.Test.make ~name:"empty repository never changes planning" ~count:5
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let bare = run_small_suite ~seed () in
      let repo = Stats_repo.open_ (fresh_path ()) in
      let with_repo = run_small_suite ~stats_repo:repo ~seed () in
      deterministic_fingerprint bare = deterministic_fingerprint with_repo)

(* --- Warm dominance (the cold-vs-warm experiment's pinned verdict) --- *)

let test_warm_dominates () =
  let report =
    Experiments.warmstart ~repo_path:(fresh_path ()) Experiments.quick
  in
  Alcotest.(check bool)
    "warm strictly dominates cold on objects and replans" true
    (contains report "WARMSTART DOMINANCE: objects=yes replans=yes")

(* A line torn inside a \u escape by a crash mid-append is skipped like
   any other unparseable line, never raised through open_. *)
let test_torn_escape_line_skipped () =
  let path = fresh_path () in
  let oc = open_out path in
  output_string oc
    {|{"k":"c","key":"before","v":5}
{"k":"c","key":"\u00{"k":"c","key":"torn","v":1}
{"k":"c","key":"after","v":7}
|};
  close_out oc;
  let keys =
    List.map
      (fun e -> e.Stats_repo.e_key)
      (Stats_repo.entries (Stats_repo.open_ path))
  in
  Alcotest.(check (list string)) "the intact lines load" [ "after"; "before" ]
    (List.sort compare keys)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "stats_repo"
    [ ( "repository",
        [ Alcotest.test_case "fingerprints" `Quick test_fingerprints;
          Alcotest.test_case "roundtrip + fallback ladder" `Quick
            test_roundtrip_and_ladder;
          Alcotest.test_case "order invariance" `Quick test_order_invariance;
          Alcotest.test_case "snapshots, gc, diff" `Quick
            test_snapshots_gc_diff;
          Alcotest.test_case "torn \\u escape line skipped" `Quick
            test_torn_escape_line_skipped ] );
      ("planning invariance", qc [ prop_empty_repo_is_invisible ]);
      ( "warm start",
        [ Alcotest.test_case "dominance" `Slow test_warm_dominates ] ) ]
