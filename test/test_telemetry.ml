(* The telemetry subsystem: histogram bucketing and merge, registry
   interning, span nesting and sinks (null / memory / JSONL round-trip),
   snapshot reports, and the driver's span-derived component breakdown. *)

open Monsoon_util
open Monsoon_telemetry
open Monsoon_core
open Monsoon_workloads

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* --- Histograms --- *)

let test_histogram_buckets () =
  let h = Metric.Histogram.create () in
  Alcotest.(check (option int)) "1.0 -> bucket 0" (Some 0)
    (Metric.Histogram.bucket_index h 1.0);
  Alcotest.(check (option int)) "1.99 -> bucket 0" (Some 0)
    (Metric.Histogram.bucket_index h 1.99);
  Alcotest.(check (option int)) "2.0 -> bucket 1" (Some 1)
    (Metric.Histogram.bucket_index h 2.0);
  Alcotest.(check (option int)) "1024 -> bucket 10" (Some 10)
    (Metric.Histogram.bucket_index h 1024.0);
  Alcotest.(check (option int)) "0.5 -> bucket -1" (Some (-1))
    (Metric.Histogram.bucket_index h 0.5);
  Alcotest.(check (option int)) "0 -> underflow" None
    (Metric.Histogram.bucket_index h 0.0);
  Alcotest.(check (option int)) "negative -> underflow" None
    (Metric.Histogram.bucket_index h (-3.0));
  let lo, hi = Metric.Histogram.bucket_bounds h 0 in
  Alcotest.(check (float 1e-9)) "bucket 0 lower" 1.0 lo;
  Alcotest.(check (float 1e-9)) "bucket 0 upper" 2.0 hi;
  let h10 = Metric.Histogram.create ~base:10.0 () in
  Alcotest.(check (option int)) "base 10: 10 -> bucket 1" (Some 1)
    (Metric.Histogram.bucket_index h10 10.0);
  Alcotest.(check (option int)) "base 10: 100 -> bucket 2" (Some 2)
    (Metric.Histogram.bucket_index h10 100.0);
  Alcotest.(check (option int)) "base 10: 9.99 -> bucket 0" (Some 0)
    (Metric.Histogram.bucket_index h10 9.99)

let test_histogram_observe_and_quantile () =
  let h = Metric.Histogram.create () in
  List.iter (Metric.Histogram.observe h) [ 1.0; 1.5; 3.0; 0.0; 100.0 ];
  Alcotest.(check int) "count" 5 (Metric.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 105.5 (Metric.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "min" 0.0 (Metric.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Metric.Histogram.max_value h);
  (* Non-empty buckets, underflow first, then increasing bounds. *)
  (match Metric.Histogram.buckets h with
  | (None, 1) :: rest ->
    let lower = List.map (fun (b, _) -> fst (Option.get b)) rest in
    Alcotest.(check bool) "buckets increase" true
      (lower = List.sort compare lower)
  | _ -> Alcotest.fail "expected a leading underflow bucket");
  (* The q-th observation's bucket upper bound: 0 for the underflow value,
     a power of two otherwise. *)
  Alcotest.(check (float 1e-9)) "q=0 hits underflow" 0.0
    (Metric.Histogram.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "q=1 hits the top bucket" 128.0
    (Metric.Histogram.quantile h 1.0)

let test_histogram_merge () =
  let h1 = Metric.Histogram.create () in
  let h2 = Metric.Histogram.create () in
  List.iter (Metric.Histogram.observe h1) [ 1.0; 2.0; 3.0 ];
  List.iter (Metric.Histogram.observe h2) [ 4.0; 5.0 ];
  let m = Metric.Histogram.merge h1 h2 in
  Alcotest.(check int) "merged count" 5 (Metric.Histogram.count m);
  Alcotest.(check (float 1e-9)) "merged sum" 15.0 (Metric.Histogram.sum m);
  Alcotest.(check (float 1e-9)) "merged min" 1.0 (Metric.Histogram.min_value m);
  Alcotest.(check (float 1e-9)) "merged max" 5.0 (Metric.Histogram.max_value m);
  (* Inputs untouched. *)
  Alcotest.(check int) "h1 untouched" 3 (Metric.Histogram.count h1);
  let other = Metric.Histogram.create ~base:10.0 () in
  Alcotest.check_raises "base mismatch"
    (Invalid_argument "Histogram.merge: different bases") (fun () ->
      ignore (Metric.Histogram.merge h1 other))

(* --- Registry --- *)

let test_registry_interning () =
  let r = Registry.create () in
  let c1 = Registry.counter r "hits" in
  let c2 = Registry.counter r "hits" in
  Metric.Counter.inc c1;
  Alcotest.(check (float 1e-9)) "same instrument" 1.0 (Metric.Counter.value c2);
  (* Labels intern order-independently. *)
  let l1 = Registry.counter r ~labels:[ ("b", "2"); ("a", "1") ] "hits" in
  let l2 = Registry.counter r ~labels:[ ("a", "1"); ("b", "2") ] "hits" in
  Metric.Counter.add l1 5.0;
  Alcotest.(check (float 1e-9)) "labels sorted" 5.0 (Metric.Counter.value l2);
  Alcotest.(check bool) "kind mismatch raises" true
    (match Registry.gauge r "hits" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check int) "two keys (unlabeled + labeled)" 2
    (List.length (Registry.to_list r))

(* --- Spans --- *)

let test_span_nesting () =
  let buf = Span.memory_buffer () in
  let tr = Span.make (Span.Memory buf) in
  let r =
    Span.with_span tr "outer" (fun outer ->
        Span.set_attr outer "k" (Span.Int 1);
        let x = Span.with_span tr "inner" (fun _ -> 21) in
        x * 2)
  in
  Alcotest.(check int) "result" 42 r;
  match Span.buffer_spans buf with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner first (completion order)" "inner"
      inner.Span.name;
    Alcotest.(check string) "outer second" "outer" outer.Span.name;
    Alcotest.(check (option int)) "inner's parent" (Some outer.Span.id)
      inner.Span.parent;
    Alcotest.(check (option int)) "outer is a root" None outer.Span.parent;
    Alcotest.(check bool) "attr retained" true
      (List.mem_assoc "k" outer.Span.attrs);
    Alcotest.(check bool) "durations non-negative" true
      (Span.duration inner >= 0.0 && Span.duration outer >= Span.duration inner)
  | spans ->
    Alcotest.failf "expected two completed spans, got %d" (List.length spans)

let test_span_exception_closes () =
  let buf = Span.memory_buffer () in
  let tr = Span.make (Span.Memory buf) in
  (try Span.with_span tr "boom" (fun _ -> failwith "nope") with
  | Failure _ -> ());
  match Span.buffer_spans buf with
  | [ s ] ->
    Alcotest.(check bool) "closed" true (Float.is_finite s.Span.stop);
    Alcotest.(check bool) "error attr" true (List.mem_assoc "error" s.Span.attrs)
  | _ -> Alcotest.fail "expected one completed span"

let test_null_sink_noop () =
  let tr = Span.null () in
  Alcotest.(check bool) "disabled" false (Span.enabled tr);
  let seen = ref None in
  let r =
    Span.with_span tr "a" (fun s ->
        Span.set_attr s "k" (Span.Int 1);
        seen := Some s;
        Span.with_span tr "b" (fun s' -> if s == s' then 7 else 0))
  in
  (* Under Null every with_span hands out the same dummy span and set_attr
     does not accumulate on it. *)
  Alcotest.(check int) "dummy span shared" 7 r;
  Alcotest.(check int) "no attrs retained" 0
    (List.length (Option.get !seen).Span.attrs)

let test_jsonl_roundtrip () =
  let file = Filename.temp_file "monsoon_trace" ".jsonl" in
  let oc = open_out file in
  let tr = Span.make (Span.Jsonl oc) in
  ignore
    (Span.with_span tr "root"
       ~attrs:[ ("s", Span.Str "x\"y"); ("flag", Span.Bool true) ]
       (fun _ ->
         Span.with_span tr "child"
           ~attrs:[ ("n", Span.Int 42); ("f", Span.Float 2.5) ]
           (fun _ -> ())));
  close_out oc;
  match Span.load_jsonl file with
  | Error e -> Alcotest.fail e
  | Ok [ child; root ] ->
    Alcotest.(check string) "child name" "child" child.Span.name;
    Alcotest.(check (option int)) "parent link" (Some root.Span.id)
      child.Span.parent;
    Alcotest.(check bool) "int attr" true
      (List.assoc "n" child.Span.attrs = Span.Int 42);
    Alcotest.(check bool) "float attr" true
      (List.assoc "f" child.Span.attrs = Span.Float 2.5);
    Alcotest.(check bool) "escaped string attr" true
      (List.assoc "s" root.Span.attrs = Span.Str "x\"y");
    Alcotest.(check bool) "bool attr" true
      (List.assoc "flag" root.Span.attrs = Span.Bool true);
    Alcotest.(check bool) "duration preserved" true
      (Span.duration child >= 0.0)
  | Ok spans ->
    Alcotest.failf "expected two spans, got %d" (List.length spans)

let test_jsonl_flush_mid_run () =
  let file = Filename.temp_file "monsoon_trace" ".jsonl" in
  let oc = open_out file in
  let sink = Span.Jsonl oc in
  let tr = Span.make sink in
  Span.with_span tr "first" (fun _ -> ());
  (* Without closing the channel, a flush must make the completed span
     visible to a concurrent reader — this is what lets `tail -f` follow
     a long run. *)
  Span.flush sink;
  (match Span.load_jsonl file with
  | Ok [ s ] -> Alcotest.(check string) "span visible" "first" s.Span.name
  | Ok spans -> Alcotest.failf "expected one span, got %d" (List.length spans)
  | Error e -> Alcotest.fail e);
  Span.with_span tr "second" (fun _ -> ());
  Span.flush (Span.Multi [ Span.Null; sink ]);
  (match Span.load_jsonl file with
  | Ok spans ->
    Alcotest.(check int) "both spans visible after Multi flush" 2
      (List.length spans)
  | Error e -> Alcotest.fail e);
  close_out oc;
  (* Ctx.flush reaches the context's sink; flushing Null/Memory is a
     no-op rather than an error. *)
  Ctx.flush (Ctx.null ());
  Span.flush (Span.Memory (Span.memory_buffer ()))

(* --- Snapshots --- *)

let test_snapshot_reports () =
  let tel = Ctx.create ~sink:Span.Null () in
  Metric.Counter.add (Ctx.counter tel "work.done") 3.0;
  Metric.Gauge.set (Ctx.gauge tel "depth") 2.0;
  Metric.Histogram.observe (Ctx.histogram tel "sizes") 10.0;
  let table = Snapshot.metrics_table ~title:"T" tel.Ctx.registry in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table mentions " ^ needle) true
        (contains table needle))
    [ "work.done"; "depth"; "sizes" ];
  (* The JSON snapshot parses back. *)
  let json = Json.to_string (Snapshot.metrics_json tel.Ctx.registry) in
  match Json.of_string json with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_exporter_empty_histogram () =
  (* A histogram with zero observations must render without dividing by
     its count — and byte-stably, since /metrics is scraped repeatedly
     on idle servers. *)
  let tel = Ctx.create ~sink:Span.Null () in
  ignore (Ctx.histogram tel "empty.sizes");
  let out = Exporter.render tel.Ctx.registry in
  Alcotest.(check string) "empty histogram golden"
    "# HELP monsoon_empty_sizes Monsoon metric empty_sizes\n\
     # TYPE monsoon_empty_sizes histogram\n\
     monsoon_empty_sizes_bucket{le=\"+Inf\"} 0\n\
     monsoon_empty_sizes_sum 0\n\
     monsoon_empty_sizes_count 0\n\
     # TYPE monsoon_empty_sizes_quantile gauge\n\
     monsoon_empty_sizes_quantile{quantile=\"0.5\"} 0\n\
     monsoon_empty_sizes_quantile{quantile=\"0.95\"} 0\n\
     monsoon_empty_sizes_quantile{quantile=\"0.99\"} 0\n"
    out;
  Alcotest.(check string) "stable across renders" out
    (Exporter.render tel.Ctx.registry)

let test_breakdown_groups_spans () =
  let buf = Span.memory_buffer () in
  let tr = Span.make (Span.Memory buf) in
  ignore
    (Span.with_span tr "work" ~attrs:[ ("objects", Span.Int 10) ] (fun _ -> ()));
  ignore
    (Span.with_span tr "work" ~attrs:[ ("objects", Span.Int 5) ] (fun _ -> ()));
  ignore (Span.with_span tr "other" (fun _ -> ()));
  let comps = Snapshot.breakdown (Span.buffer_spans buf) in
  Alcotest.(check int) "two components" 2 (List.length comps);
  let work = Option.get (Snapshot.component "work" comps) in
  Alcotest.(check int) "work spans" 2 work.Snapshot.comp_spans;
  Alcotest.(check (float 1e-9)) "work objects" 15.0 work.Snapshot.comp_objects

(* --- Domain-safety: hammer the primitives from several domains --- *)

let in_domains n f =
  let ds = List.init n (fun i -> Domain.spawn (fun () -> f i)) in
  List.iter Domain.join ds

let test_counter_hammer () =
  let reg = Registry.create () in
  let per_domain = 25_000 in
  in_domains 4 (fun _ ->
      (* Interning races with the other domains; all four must end up on
         the same instrument. *)
      let c = Registry.counter reg "hammer.hits" in
      for _ = 1 to per_domain do
        Metric.Counter.inc c
      done);
  Alcotest.(check (float 1e-9))
    "no increment lost across 4 domains"
    (float_of_int (4 * per_domain))
    (Metric.Counter.value (Registry.counter reg "hammer.hits"))

let test_histogram_hammer () =
  let h = Metric.Histogram.create () in
  let per_domain = 10_000 in
  in_domains 4 (fun d ->
      for i = 1 to per_domain do
        Metric.Histogram.observe h (float_of_int (((d * per_domain) + i) mod 37))
      done);
  Alcotest.(check int) "no observation lost" (4 * per_domain)
    (Metric.Histogram.count h);
  let bucket_total =
    List.fold_left (fun a (_, c) -> a + c) 0 (Metric.Histogram.buckets h)
  in
  Alcotest.(check int) "buckets account for every observation"
    (4 * per_domain) bucket_total

let test_gauge_and_registry_hammer () =
  let reg = Registry.create () in
  in_domains 4 (fun d ->
      for i = 1 to 1000 do
        (* Same keys from every domain: interning must never produce
           duplicates or crash. *)
        let g = Registry.gauge reg ~labels:[ ("k", string_of_int (i mod 7)) ] "g" in
        Metric.Gauge.set g (float_of_int d)
      done);
  Alcotest.(check int) "7 labeled gauges" 7 (List.length (Registry.to_list reg));
  let v = Metric.Gauge.value (Registry.gauge reg ~labels:[ ("k", "0") ] "g") in
  Alcotest.(check bool) "last write was some domain's" true (v >= 0.0 && v < 4.0)

let test_parallel_spans () =
  let buf = Span.memory_buffer () in
  let tr = Span.make (Span.Memory buf) in
  let per_domain = 500 in
  in_domains 4 (fun d ->
      for i = 1 to per_domain do
        Span.with_span tr "outer" (fun outer ->
            Span.set_attr outer "domain" (Span.Int d);
            Span.with_span tr "inner" (fun _ -> ignore i))
      done);
  let spans = Span.buffer_spans buf in
  Alcotest.(check int) "all spans recorded" (4 * per_domain * 2)
    (List.length spans);
  (* Ids are unique process-wide; parents resolve within each domain. *)
  let ids = List.map (fun s -> s.Span.id) spans in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  List.iter
    (fun s ->
      match (s.Span.name, s.Span.parent) with
      | "inner", Some p ->
        Alcotest.(check string) "inner's parent is an outer" "outer"
          (Hashtbl.find by_id p).Span.name
      | "inner", None -> Alcotest.fail "inner span lost its parent"
      | _ -> ())
    spans

(* --- The driver's component breakdown, from spans --- *)

let test_driver_breakdown () =
  let w = Tpch.workload { Tpch.seed = 7; scale = 0.03; skew = Tpch.Plain } in
  let q = Workload.find_query w "tq1" in
  let buf = Span.memory_buffer () in
  let tel = Ctx.create ~sink:(Span.Memory buf) () in
  let config =
    { (Driver.default_config ~rng:(Rng.create 3)) with
      Driver.budget = 1e8;
      mcts =
        { (Monsoon_mcts.Mcts.default_config ~rng:(Rng.create 3)) with
          Monsoon_mcts.Mcts.iterations = 150 } }
  in
  let out = Driver.run ~env:(Ctx.to_env tel) config w.Workload.catalog q in
  Alcotest.(check bool) "completes" false out.Driver.timed_out;
  let comps = Snapshot.breakdown (Span.buffer_spans buf) in
  let comp name = Snapshot.component name comps in
  let seconds name =
    match comp name with Some c -> c.Snapshot.comp_seconds | None -> 0.0
  in
  let root = Option.get (comp "driver.run") in
  Alcotest.(check int) "one root span" 1 root.Snapshot.comp_spans;
  (* The root span brackets the outcome's wall measurement... *)
  Alcotest.(check bool) "root covers the wall time" true
    (root.Snapshot.comp_seconds >= out.Driver.wall -. 1e-3
    && root.Snapshot.comp_seconds -. out.Driver.wall < 0.1);
  (* ...and the component spans account for (almost all of) it. *)
  let parts = seconds "mcts.plan" +. seconds "driver.execute" in
  Alcotest.(check bool) "components fit inside the total" true
    (parts <= root.Snapshot.comp_seconds +. 1e-3);
  Alcotest.(check bool) "components dominate the total" true
    (parts >= 0.5 *. root.Snapshot.comp_seconds);
  (* The outcome's own breakdown is the same data. *)
  Alcotest.(check bool) "mcts_time matches the mcts.plan spans" true
    (Float.abs (out.Driver.mcts_time -. seconds "mcts.plan")
    <= 0.02 +. (0.2 *. out.Driver.mcts_time));
  let sigma =
    match comp "exec.sigma" with
    | Some c -> c.Snapshot.comp_objects
    | None -> 0.0
  in
  Alcotest.(check (float 1e-6)) "sigma objects = stats_cost"
    out.Driver.stats_cost sigma;
  Alcotest.(check bool) "executes counted" true
    (match comp "driver.execute" with
    | Some c -> c.Snapshot.comp_spans = out.Driver.executes
    | None -> out.Driver.executes = 0)

(* --- JSON --- *)

let json_value =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.0) float in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun v -> Json.Num v) finite;
        map (fun i -> Json.Num (float_of_int i)) small_signed_int;
        map (fun s -> Json.Str s) string_printable;
        map (fun s -> Json.Str s) (string_size (0 -- 8)) ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [ (3, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4)
                      (pair string_printable (self (n / 4))))) ])

(* Arbitrary input never raises, and printed values parse back. *)
let prop_json_total_and_roundtrip =
  let arbitrary =
    QCheck.(
      oneof
        [ string;
          (* string bodies dense in escapes, valid and not *)
          map
            (fun frags -> "\"" ^ String.concat "" frags)
            (list_of_size Gen.(0 -- 8)
               (oneofl [ "\\u"; "0"; "4"; "a"; "F"; "Z"; "_"; "\""; "\\"; "{" ]));
          (* near-JSON: a valid document with one byte spliced in *)
          map
            (fun (v, i, c) ->
              let s = Json.to_string v in
              let i = i mod (String.length s + 1) in
              String.sub s 0 i ^ String.make 1 c
              ^ String.sub s i (String.length s - i))
            (triple (make json_value) small_nat char) ])
  in
  QCheck.Test.make
    ~name:"of_string never raises; of_string (to_string v) = Ok v"
    ~count:2000
    (QCheck.pair arbitrary (QCheck.make ~print:Json.to_string json_value))
    (fun (s, v) ->
      (match Json.of_string s with Ok _ | Error _ -> ());
      Json.of_string (Json.to_string v) = Ok v)

let test_json_bad_escapes () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is rejected" s)
        true
        (Result.is_error (Json.of_string s)))
    [ {|{"query": "\uZZZZ"}|}; {|"\u0_41"|}; {|"\u00{"|}; {|"\u12"|} ];
  Alcotest.(check bool) "\\u0041 decodes" true
    (Json.of_string {|"\u0041"|} = Ok (Json.Str "A"))

let () =
  Alcotest.run "telemetry"
    [ ( "histogram",
        [ Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "observe/quantile" `Quick
            test_histogram_observe_and_quantile;
          Alcotest.test_case "merge" `Quick test_histogram_merge ] );
      ( "registry",
        [ Alcotest.test_case "interning" `Quick test_registry_interning ] );
      ( "spans",
        [ Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "exception closes span" `Quick
            test_span_exception_closes;
          Alcotest.test_case "null sink is a no-op" `Quick test_null_sink_noop;
          Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "jsonl flush mid-run" `Quick
            test_jsonl_flush_mid_run ] );
      ( "snapshot",
        [ Alcotest.test_case "metrics reports" `Quick test_snapshot_reports;
          Alcotest.test_case "empty histogram export" `Quick
            test_exporter_empty_histogram;
          Alcotest.test_case "breakdown groups spans" `Quick
            test_breakdown_groups_spans ] );
      ( "domain-safety",
        [ Alcotest.test_case "counter hammer" `Quick test_counter_hammer;
          Alcotest.test_case "histogram hammer" `Quick test_histogram_hammer;
          Alcotest.test_case "gauge/registry hammer" `Quick
            test_gauge_and_registry_hammer;
          Alcotest.test_case "parallel spans" `Quick test_parallel_spans ] );
      ( "driver",
        [ Alcotest.test_case "component breakdown" `Quick
            test_driver_breakdown ] );
      ( "json",
        [ Alcotest.test_case "bad \\u escapes" `Quick test_json_bad_escapes;
          QCheck_alcotest.to_alcotest prop_json_total_and_roundtrip ] ) ]
