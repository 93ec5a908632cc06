open Monsoon_util
open Monsoon_sketch

(* --- HyperLogLog --- *)

let hll_relative_error ~p ~n =
  let hll = Hyperloglog.create ~p () in
  for i = 1 to n do
    Hyperloglog.add_int hll i
  done;
  abs_float (Hyperloglog.count hll -. float_of_int n) /. float_of_int n

let test_hll_small_exactish () =
  (* Linear-counting regime: small cardinalities are near-exact. *)
  let err = hll_relative_error ~p:12 ~n:100 in
  Alcotest.(check bool) "error < 2%" true (err < 0.02)

let test_hll_medium () =
  let err = hll_relative_error ~p:12 ~n:50_000 in
  Alcotest.(check bool) "error < 5%" true (err < 0.05)

let test_hll_large () =
  let err = hll_relative_error ~p:14 ~n:1_000_000 in
  Alcotest.(check bool) "error < 3%" true (err < 0.03)

let test_hll_duplicates_ignored () =
  let hll = Hyperloglog.create ~p:12 () in
  for _ = 1 to 50 do
    for i = 1 to 500 do
      Hyperloglog.add_string hll (string_of_int i)
    done
  done;
  let c = Hyperloglog.count hll in
  Alcotest.(check bool) "counts distincts" true (abs_float (c -. 500.0) < 25.0)

let test_hll_empty () =
  let hll = Hyperloglog.create () in
  Alcotest.(check (float 0.001)) "empty is zero" 0.0 (Hyperloglog.count hll)

let test_hll_merge () =
  let a = Hyperloglog.create ~p:12 () and b = Hyperloglog.create ~p:12 () in
  for i = 1 to 1000 do
    Hyperloglog.add_int a i
  done;
  for i = 501 to 1500 do
    Hyperloglog.add_int b i
  done;
  let m = Hyperloglog.merge a b in
  let c = Hyperloglog.count m in
  Alcotest.(check bool) "union ~1500" true (abs_float (c -. 1500.0) < 75.0)

let test_hll_clear () =
  let hll = Hyperloglog.create ~p:12 () in
  for i = 1 to 1000 do
    Hyperloglog.add_int hll i
  done;
  Hyperloglog.clear hll;
  Alcotest.(check (float 0.001)) "cleared" 0.0 (Hyperloglog.count hll)

(* Bit pins of [count]. The row engine and the statistics source share
   {!Hyperloglog} with the executor, so an engine-against-engine check
   cannot see [count] drift; these can. Each case is a fixed stream, about
   half of it repeats ([fed]), with crafted hashes where the top register
   rank matters. *)

(* [n] items, item i being i / 2. *)
let fed ~p n =
  let h = Hyperloglog.create ~p () in
  for i = 0 to n - 1 do
    Hyperloglog.add_int h (i / 2)
  done;
  h

(* A hash into register [idx] whose remainder past the [p] index bits has
   its lowest set bit at [rank] (counting from 1); rank 64 - p + 1 is the
   all-zero remainder. *)
let crafted ~p ~idx rank =
  if rank = 64 - p + 1 then Int64.of_int idx
  else Int64.logor (Int64.shift_left 1L (p + rank - 1)) (Int64.of_int idx)

let with_hashes h hs =
  List.iter (Hyperloglog.add_hash h) hs;
  h

let pin_cases =
  List.concat_map
    (fun p ->
      List.map
        (fun n -> (Printf.sprintf "p=%d n=%d" p n, fun () -> fed ~p n))
        [ 0; 1; 100; 5_000; 200_000 ])
    [ 4; 12; 14; 18 ]
  @ [ ( "p=14 n=200000, rank 38",
        fun () -> with_hashes (fed ~p:14 200_000) [ crafted ~p:14 ~idx:3 38 ] );
      ( "p=14 n=200000, rank 39",
        fun () -> with_hashes (fed ~p:14 200_000) [ crafted ~p:14 ~idx:3 39 ] );
      ( "p=14 n=200000, rank 45, zero remainder",
        fun () ->
          with_hashes (fed ~p:14 200_000)
            [ crafted ~p:14 ~idx:7 45; crafted ~p:14 ~idx:9 51 ] );
      (* The last registers are summed after the large early ones, so
         each of these eight terms alone is below half an ulp of the
         running sum, while their class total is one ulp. *)
      ( "p=14 n=200000, eight late registers at rank 45",
        fun () ->
          with_hashes (fed ~p:14 200_000)
            (List.init 8 (fun k -> crafted ~p:14 ~idx:(16_383 - k) 45)) );
      ( "p=12 n=200000, rank 41",
        fun () -> with_hashes (fed ~p:12 200_000) [ crafted ~p:12 ~idx:1 41 ] );
      ( "p=4 n=5000, rank 49",
        fun () -> with_hashes (fed ~p:4 5_000) [ crafted ~p:4 ~idx:2 49 ] );
      ( "p=4 n=5000, zero remainder",
        fun () -> with_hashes (fed ~p:4 5_000) [ crafted ~p:4 ~idx:1 61 ] );
      ( "p=14 cleared, refed",
        fun () ->
          let h = fed ~p:14 5_000 in
          Hyperloglog.clear h;
          for i = 0 to 99 do
            Hyperloglog.add_int h (i + 1_000_000)
          done;
          h );
      ( "p=14 cleared after rank 45",
        fun () ->
          let h = with_hashes (fed ~p:14 100) [ crafted ~p:14 ~idx:7 45 ] in
          Hyperloglog.clear h;
          h );
      ( "p=12 merge",
        fun () ->
          let b = Hyperloglog.create ~p:12 () in
          for i = 2_000 to 6_999 do
            Hyperloglog.add_int b i
          done;
          Hyperloglog.merge (fed ~p:12 5_000) b );
      ( "p=14 merge, then fed",
        fun () ->
          let m =
            Hyperloglog.merge (fed ~p:14 100)
              (with_hashes (Hyperloglog.create ~p:14 ())
                 [ crafted ~p:14 ~idx:5 40 ])
          in
          for i = 0 to 199 do
            Hyperloglog.add_int m (i + 500)
          done;
          m ) ]

let count_pins =
  [ ("p=4 n=0", 0x0L);
    ("p=4 n=1", 0x3ff08598b59e3a06L);
    ("p=4 n=100", 0x4044e2261aef2e7cL);
    ("p=4 n=5000", 0x409ac3600ea25e5eL);
    ("p=4 n=200000", 0x40fe8b4c4c450207L);
    ("p=12 n=0", 0x0L);
    ("p=12 n=1", 0x3ff0008005559549L);
    ("p=12 n=100", 0x4049276221f33254L);
    ("p=12 n=5000", 0x40a3bae897234a87L);
    ("p=12 n=200000", 0x40f84839af0e0456L);
    ("p=14 n=0", 0x0L);
    ("p=14 n=1", 0x3ff0002000555255L);
    ("p=14 n=100", 0x404909c919122467L);
    ("p=14 n=5000", 0x40a3abe135f62a12L);
    ("p=14 n=200000", 0x40f80ca11ac163c4L);
    ("p=18 n=0", 0x0L);
    ("p=18 n=1", 0x3ff00001ffff5555L);
    ("p=18 n=100", 0x4049009c45164641L);
    ("p=18 n=5000", 0x40a391dc23f1ece3L);
    ("p=18 n=200000", 0x40f85bfdccb250feL);
    ("p=14 n=200000, rank 38", 0x40f80cada25ebfc4L);
    ("p=14 n=200000, rank 39", 0x40f80cada25ebfcaL);
    ("p=14 n=200000, rank 45, zero remainder", 0x40f80d055919db05L);
    ("p=14 n=200000, eight late registers at rank 45", 0x40f81027c1715b91L);
    ("p=12 n=200000, rank 41", 0x40f84b6bc34550a3L);
    ("p=4 n=5000, rank 49", 0x409bd832ce943d6bL);
    ("p=4 n=5000, zero remainder", 0x409b4b0bc7f4287aL);
    ("p=14 cleared, refed", 0x4059139c704acd81L);
    ("p=14 cleared after rank 45", 0x0L);
    ("p=12 merge", 0x40bc2162de675473L);
    ("p=14 merge, then fed", 0x406f5d2b1babf9daL) ]

let test_hll_count_pinned () =
  List.iter
    (fun (label, mk) ->
      Alcotest.(check int64) label (List.assoc label count_pins)
        (Int64.bits_of_float (Hyperloglog.count (mk ()))))
    pin_cases

let prop_hll_error_bound =
  (* 1.04/sqrt(m) standard error; allow 6 sigma. *)
  QCheck.Test.make ~name:"hll relative error bounded" ~count:20
    QCheck.(int_range 100 200_000)
    (fun n ->
      let err = hll_relative_error ~p:12 ~n in
      err < 6.0 *. (1.04 /. sqrt 4096.0))

(* --- GEE distinct estimator --- *)

let test_gee_exact_when_full () =
  (* Sample = population: estimator ~ true distinct count. *)
  let sample = Array.init 1000 (fun i -> string_of_int (i mod 100)) in
  let est = Distinct_estimator.gee ~population:1000 sample in
  Alcotest.(check bool) "close to 100" true (abs_float (est -. 100.0) < 10.0)

let test_gee_all_unique_sample () =
  (* All-singleton sample from a big population: estimate sqrt(n/r)*r =
     sqrt(n*r). *)
  let sample = Array.init 100 string_of_int in
  let est = Distinct_estimator.gee ~population:10_000 sample in
  Alcotest.(check (float 1.0)) "sqrt(n*r)" (sqrt (10_000.0 *. 100.0)) est

let test_gee_monotone_bounds () =
  let sample = Array.init 50 (fun i -> string_of_int (i mod 10)) in
  let est = Distinct_estimator.gee ~population:500 sample in
  Alcotest.(check bool) "at least seen distincts" true (est >= 10.0);
  Alcotest.(check bool) "at most population" true (est <= 500.0)

let test_gee_empty () =
  Alcotest.(check (float 0.001)) "empty" 0.0
    (Distinct_estimator.gee ~population:100 [||])

let test_exact_distinct () =
  Alcotest.(check int) "exact" 3
    (Distinct_estimator.exact [| "a"; "b"; "a"; "c"; "b" |])

let prop_gee_bounds =
  QCheck.Test.make ~name:"gee within [seen, population]" ~count:200
    QCheck.(pair (int_range 1 200) (int_range 1 50))
    (fun (n_sample, n_vals) ->
      let rng = Rng.create (n_sample * 31 + n_vals) in
      let sample =
        Array.init n_sample (fun _ -> string_of_int (Rng.int rng n_vals))
      in
      let population = n_sample * 10 in
      let est = Distinct_estimator.gee ~population sample in
      let seen = float_of_int (Distinct_estimator.exact sample) in
      est >= seen && est <= float_of_int population)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sketch"
    [ ( "hyperloglog",
        [ Alcotest.test_case "small" `Quick test_hll_small_exactish;
          Alcotest.test_case "medium" `Quick test_hll_medium;
          Alcotest.test_case "large" `Slow test_hll_large;
          Alcotest.test_case "duplicates" `Quick test_hll_duplicates_ignored;
          Alcotest.test_case "empty" `Quick test_hll_empty;
          Alcotest.test_case "merge" `Quick test_hll_merge;
          Alcotest.test_case "clear" `Quick test_hll_clear;
          Alcotest.test_case "count bits pinned" `Quick
            test_hll_count_pinned ] );
      ( "distinct estimator",
        [ Alcotest.test_case "full sample" `Quick test_gee_exact_when_full;
          Alcotest.test_case "all unique" `Quick test_gee_all_unique_sample;
          Alcotest.test_case "bounds" `Quick test_gee_monotone_bounds;
          Alcotest.test_case "empty" `Quick test_gee_empty;
          Alcotest.test_case "exact" `Quick test_exact_distinct ] );
      ("properties", qc [ prop_hll_error_bound; prop_gee_bounds ]) ]
