open Monsoon_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create 8 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 5_000 do
    let v = Rng.int_in rng 3 7 in
    Alcotest.(check bool) "in [3,7]" true (v >= 3 && v <= 7);
    Hashtbl.replace seen v ()
  done;
  Alcotest.(check int) "all values hit" 5 (Hashtbl.length seen)

let test_rng_unit_float () =
  let rng = Rng.create 9 in
  let sum = ref 0.0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.unit_float rng in
    assert (v >= 0.0 && v < 1.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  Alcotest.(check bool) "split streams differ" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* --- Dist --- *)

let sample_stats f n =
  let rng = Rng.create 123 in
  let xs = Array.init n (fun _ -> f rng) in
  (Dist.mean xs, Dist.stddev xs)

let test_normal_moments () =
  let mean, sd = sample_stats (fun rng -> Dist.normal rng ~mean:3.0 ~stddev:2.0) 200_000 in
  Alcotest.(check bool) "mean" true (abs_float (mean -. 3.0) < 0.05);
  Alcotest.(check bool) "stddev" true (abs_float (sd -. 2.0) < 0.05)

let test_gamma_moments () =
  (* Gamma(k, θ): mean kθ, var kθ². *)
  let mean, sd = sample_stats (fun rng -> Dist.gamma rng ~shape:4.0 ~scale:0.5) 200_000 in
  Alcotest.(check bool) "mean near 2" true (abs_float (mean -. 2.0) < 0.05);
  Alcotest.(check bool) "sd near 1" true (abs_float (sd -. 1.0) < 0.05)

let test_gamma_small_shape () =
  let mean, _ = sample_stats (fun rng -> Dist.gamma rng ~shape:0.3 ~scale:1.0) 200_000 in
  Alcotest.(check bool) "mean near 0.3" true (abs_float (mean -. 0.3) < 0.02)

let test_beta_moments () =
  (* Beta(3,1): mean 3/4. *)
  let mean, _ = sample_stats (fun rng -> Dist.beta rng ~alpha:3.0 ~beta:1.0) 200_000 in
  Alcotest.(check bool) "mean near 0.75" true (abs_float (mean -. 0.75) < 0.01)

let test_beta_support () =
  let rng = Rng.create 77 in
  for _ = 1 to 10_000 do
    let v = Dist.beta rng ~alpha:0.5 ~beta:0.5 in
    assert (v > 0.0 && v < 1.0)
  done

let test_beta_pdf_integrates () =
  (* Trapezoidal integral of the Beta(2,10) density should be ~1. *)
  let n = 20_000 in
  let acc = ref 0.0 in
  for i = 1 to n - 1 do
    let x = float_of_int i /. float_of_int n in
    acc := !acc +. Dist.beta_pdf ~alpha:2.0 ~beta:10.0 x
  done;
  let integral = !acc /. float_of_int n in
  Alcotest.(check bool) "integrates to 1" true (abs_float (integral -. 1.0) < 0.01)

let test_beta_pdf_uniform_case () =
  check_float "Beta(1,1) is uniform" 1.0 (Dist.beta_pdf ~alpha:1.0 ~beta:1.0 0.42)

let test_zipf_skew () =
  let rng = Rng.create 13 in
  let z = Dist.zipf_make ~n:100 ~z:1.0 in
  let counts = Array.make 101 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let r = Dist.zipf_draw rng z in
    assert (r >= 1 && r <= 100);
    counts.(r) <- counts.(r) + 1
  done;
  (* P(rank 1) / P(rank 2) should be close to 2 for z = 1. *)
  let ratio = float_of_int counts.(1) /. float_of_int counts.(2) in
  Alcotest.(check bool) "zipf ratio" true (abs_float (ratio -. 2.0) < 0.25)

let test_zipf_uniform_when_z0 () =
  let rng = Rng.create 14 in
  let z = Dist.zipf_make ~n:10 ~z:0.0 in
  let counts = Array.make 11 0 in
  for _ = 1 to 50_000 do
    counts.(Dist.zipf_draw rng z) <- counts.(Dist.zipf_draw rng z) + 1
  done;
  let mn = Array.fold_left min max_int (Array.sub counts 1 10) in
  let mx = Array.fold_left max 0 (Array.sub counts 1 10) in
  Alcotest.(check bool) "roughly uniform" true
    (float_of_int mx /. float_of_int (max 1 mn) < 1.3)

let test_categorical () =
  let rng = Rng.create 15 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Dist.categorical rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "index 2 dominates" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0))

let test_median_odd () = check_float "median" 2.0 (Dist.median [| 3.0; 1.0; 2.0 |])

let test_median_even () =
  check_float "median" 2.5 (Dist.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50.0 (Dist.percentile a 50.0);
  check_float "p90" 90.0 (Dist.percentile a 90.0);
  check_float "p100" 100.0 (Dist.percentile a 100.0)

(* --- Hashing --- *)

let test_hash_string_stable () =
  Alcotest.(check int64) "stable" (Hashing.string "monsoon") (Hashing.string "monsoon")

let test_hash_string_spread () =
  let seen = Hashtbl.create 1024 in
  for i = 0 to 9_999 do
    Hashtbl.replace seen (Hashing.string (string_of_int i)) ()
  done;
  Alcotest.(check int) "no collisions on 10k" 10_000 (Hashtbl.length seen)

let test_hash_combine_order () =
  let a = Hashing.int 1 and b = Hashing.int 2 in
  Alcotest.(check bool) "order matters" true
    (Hashing.combine a b <> Hashing.combine b a)

(* --- qcheck properties --- *)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.)) (float_range 0. 100.))
    (fun (a, p) ->
      QCheck.assume (Array.length a > 0);
      let v = Dist.percentile a p in
      let mn = Array.fold_left min infinity a in
      let mx = Array.fold_left max neg_infinity a in
      v >= mn && v <= mx)

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf draws in [1,n]" ~count:100
    QCheck.(pair (int_range 1 500) (float_range 0.0 4.0))
    (fun (n, z) ->
      let rng = Rng.create (n + int_of_float (z *. 1000.)) in
      let d = Dist.zipf_make ~n ~z in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Dist.zipf_draw rng d in
        if v < 1 || v > n then ok := false
      done;
      !ok)

let prop_beta_in_unit =
  QCheck.Test.make ~name:"beta samples in (0,1)" ~count:100
    QCheck.(pair (float_range 0.1 10.0) (float_range 0.1 10.0))
    (fun (alpha, beta) ->
      let rng = Rng.create 99 in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Dist.beta rng ~alpha ~beta in
        if not (v > 0.0 && v < 1.0) then ok := false
      done;
      !ok)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int_in inclusive" `Quick test_rng_int_in;
          Alcotest.test_case "unit_float mean" `Quick test_rng_unit_float;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation ] );
      ( "dist",
        [ Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "gamma moments" `Quick test_gamma_moments;
          Alcotest.test_case "gamma small shape" `Quick test_gamma_small_shape;
          Alcotest.test_case "beta moments" `Quick test_beta_moments;
          Alcotest.test_case "beta support" `Quick test_beta_support;
          Alcotest.test_case "beta pdf integrates" `Quick test_beta_pdf_integrates;
          Alcotest.test_case "beta pdf uniform" `Quick test_beta_pdf_uniform_case;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf z=0 uniform" `Quick test_zipf_uniform_when_z0;
          Alcotest.test_case "categorical" `Quick test_categorical;
          Alcotest.test_case "median odd" `Quick test_median_odd;
          Alcotest.test_case "median even" `Quick test_median_even;
          Alcotest.test_case "percentile" `Quick test_percentile ] );
      ( "hashing",
        [ Alcotest.test_case "string stable" `Quick test_hash_string_stable;
          Alcotest.test_case "string spread" `Quick test_hash_string_spread;
          Alcotest.test_case "combine order" `Quick test_hash_combine_order ] );
      ( "properties",
        qc
          [ prop_percentile_bounds; prop_zipf_in_range; prop_beta_in_unit ] ) ]
