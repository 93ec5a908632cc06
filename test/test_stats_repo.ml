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
module Json = Monsoon_telemetry.Json

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
      let repo_run = run_small_suite ~stats_repo:repo ~seed () in
      deterministic_fingerprint bare = deterministic_fingerprint repo_run)

(* --- Warm dominance (the cold-vs-warm experiment's pinned verdict) --- *)

let test_warm_dominates () =
  let report =
    Experiments.warmstart ~repo_path:(fresh_path ()) Experiments.quick
  in
  Alcotest.(check bool)
    "warm strictly dominates cold on objects and replans" true
    (contains report "WARMSTART DOMINANCE: objects=yes replans=yes")

(* With neither a path nor $MONSOON_REPO, each warm-start run gets its own
   repository and leaves nothing behind: two runs at once see different
   paths, and the log, its snapshots and their directory are gone after
   each run. *)
let test_warmstart_default_repo () =
  if Sys.getenv_opt "MONSOON_REPO" <> None then Alcotest.skip ();
  let tmp = Filename.get_temp_dir_name () in
  let ours () =
    Sys.readdir tmp |> Array.to_list
    |> List.filter (String.starts_with ~prefix:"monsoon-warmstart-")
    |> List.sort compare
  in
  let before = ours () in
  let used = ref [] in
  Experiments.with_warmstart_repo (fun p1 ->
      Experiments.with_warmstart_repo (fun p2 ->
          Alcotest.(check bool) "distinct paths" true (p1 <> p2);
          List.iter
            (fun p ->
              Out_channel.with_open_text p (fun oc -> output_string oc "\n");
              match Stats_repo.snapshot (Stats_repo.open_ p) with
              | Ok snap -> used := p :: snap :: Filename.dirname p :: !used
              | Error e -> Alcotest.fail e)
            [ p1; p2 ]));
  List.iter
    (fun f -> Alcotest.(check bool) ("removed " ^ f) false (Sys.file_exists f))
    !used;
  let report = Experiments.warmstart Experiments.quick in
  Alcotest.(check bool) "default run reports" true
    (contains report "WARMSTART DOMINANCE: objects=yes replans=yes");
  Alcotest.(check (list string)) "nothing left behind" before (ours ())

(* Characterization of the experiment's report: the totals and the
   verdict of the quick cold-vs-warm run, byte for byte. *)
let test_warmstart_report_pinned () =
  let report =
    Experiments.warmstart ~repo_path:(fresh_path ()) Experiments.quick
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("report line: " ^ line) true
        (contains report (line ^ "\n")))
    [ "  totals: objects cold 57.5k warm 34.5k; Σ objects cold 36.2k \
       warm 7371";
      "  replans/query: cold 8.25 warm 5.62; warm-start seeds: 51";
      "  WARMSTART DOMINANCE: objects=yes replans=yes" ]

(* --- Serving with a repository ---

   Two passes of the same requests through the serving handler: the first
   flushes every request's measurements (a pinned number of lines each),
   the second reopens the log and warm-starts from it. *)

let line_count path =
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec go n =
      match input_line ic with _ -> go (n + 1) | exception End_of_file -> n
    in
    let n = go 0 in
    close_in ic;
    n

let serve_pass path =
  let tel = Monsoon_telemetry.Ctx.null () in
  let profile = { Experiments.quick with Experiments.ctx = tel } in
  let repo = Stats_repo.open_ path in
  match Experiments.service profile ~experiment:"udf" ~stats_repo:repo () with
  | Error e -> Alcotest.fail e
  | Ok (handler, names) ->
    let server =
      Monsoon_server.Server.create ~queries:names
        { Monsoon_server.Server.default_config with
          Monsoon_server.Server.request_timeout = None;
          seed = profile.Experiments.seed }
        handler
    in
    let written =
      List.map
        (fun name ->
          let before = line_count path in
          let r = Monsoon_server.Server.submit server name in
          Alcotest.(check int) ("served " ^ name) 200
            r.Monsoon_server.Server.rs_code;
          line_count path - before)
        (List.filteri (fun i _ -> i < 4) names)
    in
    Monsoon_server.Server.stop server;
    let counter n =
      int_of_float
        (Monsoon_telemetry.Metric.Counter.value
           (Monsoon_telemetry.Ctx.counter tel n))
    in
    (written, counter "repo.flushes", counter "repo.warm_starts")

let test_service_over_repo () =
  let path = fresh_path () in
  let written, flushes, warm = serve_pass path in
  Alcotest.(check (list int)) "lines flushed per request" [ 13; 7; 15; 13 ]
    written;
  Alcotest.(check int) "one flush per request" 4 flushes;
  Alcotest.(check int) "a cold log warm-starts nothing" 0 warm;
  let _, flushes, warm = serve_pass path in
  Alcotest.(check int) "second pass flushes too" 4 flushes;
  Alcotest.(check bool) "second pass warm-starts" true (warm > 0)

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

(* --- Non-finite and out-of-range values never reach the planner --- *)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let obs_line k key v = Printf.sprintf {|{"k":%S,"key":%S,"v":%s}|} k key v

(* A distinct count of [1e999] parses to infinity unless the reader
   refuses it; a warm start from it fed NaN candidate means to MCTS. *)
let test_overflowing_distinct_skipped () =
  Alcotest.(check bool) "1e999 is not a JSON number" true
    (Result.is_error (Json.of_string "1e999"));
  Alcotest.(check bool) "-1e999 is not a JSON number" true
    (Result.is_error (Json.of_string "[-1e999]"));
  let path = fresh_path () in
  let d i = Stats_repo.distinct_key q (term i) in
  let u = Stats_repo.udf_key q (term 3) in
  write_lines path
    [ obs_line "d" (d 0) "1e999";
      obs_line "d" (d 1) "-3";
      obs_line "u" u "-0.5";
      obs_line "uc" u "100";
      obs_line "d" (d 2) "5" ];
  let repo = Stats_repo.open_ path in
  let cold i =
    match Stats_repo.lookup_distinct repo ~query:q ~term:(term i) with
    | Stats_repo.Cold -> true
    | _ -> false
  in
  Alcotest.(check bool) "an overflowing distinct stays Cold" true (cold 0);
  Alcotest.(check bool) "a negative distinct stays Cold" true (cold 1);
  Alcotest.(check bool) "a negative selectivity leaves the UDF unknown" true
    (Stats_repo.lookup_udf repo ~query:q ~term:(term 3) = None);
  match Stats_repo.lookup_distinct repo ~query:q ~term:(term 2) with
  | Stats_repo.Known v -> Alcotest.(check (float 0.0)) "the good line" 5.0 v
  | _ -> Alcotest.fail "the good line should seed a Known value"

(* The measured case end to end: a cold run's log with every distinct
   rewritten to [1e999] warm-starts nothing, so planning matches a run
   without a repository. *)
let test_overflowed_log_plans_like_no_repo () =
  let path = fresh_path () in
  ignore (run_small_suite ~stats_repo:(Stats_repo.open_ path) ~seed:3 ());
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  let overflow l =
    match Json.of_string l with
    | Ok j when Json.member "k" j = Some (Json.Str "d") ->
      let key = Option.bind (Json.member "key" j) Json.to_str in
      obs_line "d" (Option.get key) "1e999"
    | _ -> l
  in
  let rewritten = List.map overflow lines in
  Alcotest.(check bool) "the cold run measured distincts" true
    (rewritten <> lines);
  write_lines path rewritten;
  let warm = run_small_suite ~stats_repo:(Stats_repo.open_ path) ~seed:3 () in
  Alcotest.(check bool) "planning matches the repository-free run" true
    (deterministic_fingerprint (run_small_suite ~seed:3 ())
    = deterministic_fingerprint warm)

let test_skipped_lines_counted () =
  let path = fresh_path () in
  write_lines path
    [ obs_line "c" "kept" "4";
      obs_line "c" "negative" "-1";
      obs_line "x" "unknown-kind" "1";
      {|{"k":"c","key":"torn","v":|};
      "" ];
  let repo = Stats_repo.open_ path in
  Alcotest.(check (list string)) "one key kept" [ "kept" ]
    (List.map (fun e -> e.Stats_repo.e_key) (Stats_repo.entries repo));
  Alcotest.(check bool) "show reports the count" true
    (contains (Stats_repo.show repo) "\n  skipped 4 unusable lines\n");
  write_lines path [ obs_line "c" "kept" "4" ];
  Alcotest.(check bool) "show is silent without skips" false
    (contains (Stats_repo.show (Stats_repo.open_ path)) "skipped")

(* Arbitrary mixes of well-formed, out-of-range, overflowing, torn and
   garbage lines over the query's keys: [open_] never raises, and every
   warm-start answer is finite and non-negative. *)
let gen_line =
  let open QCheck.Gen in
  let keys =
    List.concat_map
      (fun i ->
        [ Stats_repo.distinct_key q (term i); Stats_repo.udf_key q (term i) ])
      [ 0; 1; 2; 3 ]
  in
  let value =
    frequency
      [ (3, map (Printf.sprintf "%.17g") float);
        (1, map (Printf.sprintf "%.17g") (float_range 0.0 1.0));
        (2, map string_of_int (int_range (-5) 1_000_000));
        (* Two near-max values sum past the float range. *)
        (3, oneofl [ "1.7976931348623157e308"; "1e308"; "1e999"; "-1e999" ]);
        (1, oneofl [ "0"; "-0"; "1e-999"; "null"; "\"7\""; "nan"; "inf" ]) ]
  in
  let well_formed =
    map3 (fun k key v -> obs_line k key v)
      (frequency
         [ (4, return "d"); (1, return "c"); (1, return "u");
           (1, return "uc"); (1, return "x") ])
      (oneofl keys) value
  in
  frequency
    [ (6, well_formed);
      (1, map2 (fun l n -> String.sub l 0 (min n (String.length l)))
            well_formed (int_range 0 40));
      (1, string_printable) ]

let prop_open_never_yields_bad_values =
  QCheck.Test.make ~name:"open_ never yields a non-finite or negative value"
    ~count:200
    QCheck.(
      make ~print:(String.concat "\n") Gen.(list_size (int_range 0 30) gen_line))
    (fun lines ->
      let path = fresh_path () in
      write_lines path
        (List.filter (fun l -> not (String.contains l '\n')) lines);
      let repo = Stats_repo.open_ path in
      let rng = Monsoon_util.Rng.create 1 in
      List.for_all
        (fun i ->
          match Stats_repo.lookup_distinct repo ~query:q ~term:(term i) with
          | Stats_repo.Cold -> true
          | Stats_repo.Known d -> Float.is_finite d && d >= 0.0
          | Stats_repo.Hint p ->
            (* No upper clamp: a non-finite draw shows through. *)
            List.for_all
              (fun _ ->
                Float.is_finite
                  (Prior.sample p rng ~c_own:Float.infinity ~c_partner:None))
              (List.init 20 Fun.id))
        [ 0; 1; 2; 3 ])

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
            test_torn_escape_line_skipped;
          Alcotest.test_case "overflowing distinct skipped" `Quick
            test_overflowing_distinct_skipped;
          Alcotest.test_case "overflowed log plans like no repository" `Quick
            test_overflowed_log_plans_like_no_repo;
          Alcotest.test_case "skipped lines counted" `Quick
            test_skipped_lines_counted ] );
      ("bad values", qc [ prop_open_never_yields_bad_values ]);
      ("planning invariance", qc [ prop_empty_repo_is_invisible ]);
      ( "warm start",
        [ Alcotest.test_case "dominance" `Slow test_warm_dominates;
          Alcotest.test_case "report totals pinned" `Slow
            test_warmstart_report_pinned;
          Alcotest.test_case "default repository per run" `Slow
            test_warmstart_default_repo ] );
      ( "serving",
        [ Alcotest.test_case "two passes over one repository" `Quick
            test_service_over_repo ] ) ]
