open Monsoon_util
open Monsoon_stats

(* --- Stats catalog --- *)

let test_counts_roundtrip () =
  let s = Stats_catalog.create () in
  Stats_catalog.set_count s 5 123.0;
  Alcotest.(check (option (float 0.0))) "hit" (Some 123.0) (Stats_catalog.count s 5);
  Alcotest.(check (option (float 0.0))) "miss" None (Stats_catalog.count s 6)

let test_distinct_precedence () =
  let s = Stats_catalog.create () in
  Stats_catalog.set_distinct s ~term:0 ~scope:(Stats_catalog.For_pred 3) 10.0;
  Alcotest.(check (option (float 0.0))) "scoped hit" (Some 10.0)
    (Stats_catalog.distinct s ~term:0 ~pred:(Some 3));
  Alcotest.(check (option (float 0.0))) "other pred misses" None
    (Stats_catalog.distinct s ~term:0 ~pred:(Some 4));
  Alcotest.(check (option (float 0.0))) "selection context misses" None
    (Stats_catalog.distinct s ~term:0 ~pred:None);
  (* A wildcard measurement overrides everything. *)
  Stats_catalog.set_distinct s ~term:0 ~scope:Stats_catalog.Wildcard 42.0;
  Alcotest.(check (option (float 0.0))) "wildcard wins" (Some 42.0)
    (Stats_catalog.distinct s ~term:0 ~pred:(Some 3));
  Alcotest.(check (option (float 0.0))) "wildcard for selections too" (Some 42.0)
    (Stats_catalog.distinct s ~term:0 ~pred:None);
  Alcotest.(check bool) "has measurement" true (Stats_catalog.has_measurement s ~term:0);
  Alcotest.(check bool) "no measurement" false (Stats_catalog.has_measurement s ~term:1)

let test_select_scope () =
  let s = Stats_catalog.create () in
  Stats_catalog.set_distinct s ~term:2 ~scope:Stats_catalog.For_select 7.0;
  Alcotest.(check (option (float 0.0))) "selection hit" (Some 7.0)
    (Stats_catalog.distinct s ~term:2 ~pred:None);
  Alcotest.(check (option (float 0.0))) "join context misses" None
    (Stats_catalog.distinct s ~term:2 ~pred:(Some 0))

let test_copy_isolated () =
  let s = Stats_catalog.create () in
  Stats_catalog.set_count s 1 10.0;
  let s' = Stats_catalog.copy s in
  Stats_catalog.set_count s' 2 20.0;
  Stats_catalog.set_count s' 1 99.0;
  Alcotest.(check (option (float 0.0))) "original untouched" (Some 10.0)
    (Stats_catalog.count s 1);
  Alcotest.(check (option (float 0.0))) "original misses new" None (Stats_catalog.count s 2);
  Alcotest.(check int) "sizes diverge" 1 (Stats_catalog.size s);
  Alcotest.(check int) "copy grew" 2 (Stats_catalog.size s')

let test_version_counter () =
  let s = Stats_catalog.create () in
  Alcotest.(check int) "fresh catalog" 0 (Stats_catalog.version s);
  Stats_catalog.set_count s 5 123.0;
  let v1 = Stats_catalog.version s in
  Alcotest.(check bool) "first write bumps" true (v1 > 0);
  (* The collision that motivated the counter: an overwrite with the very
     same value leaves [size] (and every rendered entry) unchanged. *)
  Stats_catalog.set_count s 5 123.0;
  Alcotest.(check bool) "same-value overwrite bumps" true
    (Stats_catalog.version s > v1);
  Alcotest.(check int) "size blind to the overwrite" 1 (Stats_catalog.size s);
  Stats_catalog.set_distinct s ~term:0 ~scope:Stats_catalog.Wildcard 9.0;
  let v2 = Stats_catalog.version s in
  Stats_catalog.set_distinct s ~term:0 ~scope:Stats_catalog.Wildcard 9.0;
  Alcotest.(check bool) "distinct overwrite bumps" true
    (Stats_catalog.version s > v2);
  let s' = Stats_catalog.copy s in
  Alcotest.(check int) "copy carries the counter" (Stats_catalog.version s)
    (Stats_catalog.version s');
  Stats_catalog.set_count s' 5 123.0;
  Alcotest.(check bool) "copies diverge independently" true
    (Stats_catalog.version s' > Stats_catalog.version s)

let test_enumerations () =
  let s = Stats_catalog.create () in
  Stats_catalog.set_count s 3 5.0;
  Stats_catalog.set_distinct s ~term:1 ~scope:Stats_catalog.Wildcard 2.0;
  Stats_catalog.set_distinct s ~term:1 ~scope:(Stats_catalog.For_pred 0) 3.0;
  Alcotest.(check int) "counts" 1 (List.length (Stats_catalog.counts s));
  Alcotest.(check int) "distincts" 2 (List.length (Stats_catalog.distincts s))

(* The exact bytes of the statistics fingerprint, which the MCTS state key
   embeds: the %.4g rendering (a tie to even, rounding across a power of
   ten, zero, small values), the order of distincts (by term, then
   Wildcard, For_select, For_pred by predicate) and the version counter
   after overwrites. *)
let test_fingerprint_bytes () =
  let s = Stats_catalog.create () in
  List.iter
    (fun (m, c) -> Stats_catalog.set_count s m c)
    [ (7, 0.000012345); (1, 0.0); (2, 1.5); (3, 1200.0); (4, 12345.0); (5, 12355.0);
      (6, 9999.5) ];
  List.iter
    (fun (term, scope, d) -> Stats_catalog.set_distinct s ~term ~scope d)
    [ (3, Stats_catalog.For_pred 10, 0.000012345);
      (3, Stats_catalog.Wildcard, 12345.0);
      (12, Stats_catalog.Wildcard, 12355.0);
      (3, Stats_catalog.For_pred 2, 1.5);
      (1, Stats_catalog.For_pred 0, 0.0);
      (3, Stats_catalog.For_select, 9999.5);
      (0, Stats_catalog.For_select, 1200.0) ];
  Stats_catalog.set_count s 3 1200.0;
  Stats_catalog.set_distinct s ~term:3 ~scope:Stats_catalog.Wildcard 12345.0;
  Alcotest.(check string) "fingerprint"
    ("C[1:0,2:1.5,3:1200,4:1.234e+04,5:1.236e+04,6:1e+04,7:1.234e-05]"
    ^ "D[0@s:1200,1@0:0,3@*:1.234e+04,3@s:1e+04,3@2:1.5,3@10:1.234e-05,12@*:1.236e+04]"
    ^ "V[16]")
    (Stats_catalog.fingerprint s)

(* --- Priors --- *)

let rng () = Rng.create 2024

let test_all_priors_listed () =
  Alcotest.(check int) "seven priors" 7 (List.length Prior.all);
  Alcotest.(check (list string)) "paper order"
    [ "Uniform"; "Increasing"; "Decreasing"; "U-Shaped"; "Low Biased";
      "Spike and Slab"; "Discrete" ]
    (List.map Prior.name Prior.all)

let test_by_name () =
  Alcotest.(check bool) "found" true (Prior.by_name "spike and slab" <> None);
  Alcotest.(check bool) "missing" true (Prior.by_name "nope" = None)

let test_discrete_point_mass () =
  let r = rng () in
  for _ = 1 to 20 do
    Alcotest.(check (float 0.001)) "0.1 c" 100.0
      (Prior.sample Prior.discrete r ~c_own:1000.0 ~c_partner:None)
  done

let test_spike_and_slab_composition () =
  let r = rng () in
  let c_own = 1000.0 and c_s = 50.0 in
  let n = 50_000 in
  let at_own = ref 0 and at_partner = ref 0 in
  for _ = 1 to n do
    let d = Prior.sample Prior.spike_and_slab r ~c_own ~c_partner:(Some c_s) in
    assert (d >= 1.0 && d <= c_own);
    if d = c_own then incr at_own;
    if d = c_s then incr at_partner
  done;
  let f_own = float_of_int !at_own /. float_of_int n in
  let f_partner = float_of_int !at_partner /. float_of_int n in
  Alcotest.(check bool) "~10% at c(r)" true (abs_float (f_own -. 0.1) < 0.01);
  Alcotest.(check bool) "~10% at c(s)" true (abs_float (f_partner -. 0.1) < 0.01)

let test_increasing_vs_decreasing () =
  let r = rng () in
  let mean prior =
    let acc = ref 0.0 in
    for _ = 1 to 20_000 do
      acc := !acc +. Prior.sample prior r ~c_own:10_000.0 ~c_partner:None
    done;
    !acc /. 20_000.0
  in
  let inc = mean Prior.increasing and dec = mean Prior.decreasing in
  Alcotest.(check bool) "increasing optimistic" true (inc > 6_000.0);
  Alcotest.(check bool) "decreasing pessimistic" true (dec < 4_000.0)

let test_custom_prior () =
  let p =
    Prior.custom ~name:"two-point"
      ~sample:(fun rng ~c_own ~c_partner:_ ->
        if Rng.bool rng then 1.0 else c_own)
      ()
  in
  let r = rng () in
  let lows = ref 0 in
  for _ = 1 to 1000 do
    if Prior.sample p r ~c_own:100.0 ~c_partner:None = 1.0 then incr lows
  done;
  Alcotest.(check bool) "both outcomes occur" true (!lows > 300 && !lows < 700)

let test_density_shapes () =
  (* U-shaped is high near the edges, low in the middle; low-biased peaks
     early. *)
  let u = Prior.density Prior.u_shaped in
  Alcotest.(check bool) "u-shape" true (u ~x:0.05 > u ~x:0.5 && u ~x:0.95 > u ~x:0.5);
  let lb = Prior.density Prior.low_biased in
  Alcotest.(check bool) "low-biased peak" true (lb ~x:0.1 > lb ~x:0.5)

let prop_priors_in_support =
  QCheck.Test.make ~name:"all priors sample within [1, c]" ~count:300
    QCheck.(pair (float_range 1.0 1e6) (option (float_range 1.0 1e6)))
    (fun (c_own, c_partner) ->
      let r = Rng.create (int_of_float c_own) in
      List.for_all
        (fun p ->
          let d = Prior.sample p r ~c_own ~c_partner in
          d >= 1.0 && d <= Float.max 1.0 c_own)
        Prior.all)

let prop_priors_selection_context =
  QCheck.Test.make ~name:"selection context (no partner) works" ~count:100
    QCheck.(float_range 1.0 1e5)
    (fun c_own ->
      let r = Rng.create 55 in
      List.for_all
        (fun p ->
          let d = Prior.sample p r ~c_own ~c_partner:None in
          d >= 1.0 && d <= Float.max 1.0 c_own)
        Prior.all)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [ ( "catalog",
        [ Alcotest.test_case "counts roundtrip" `Quick test_counts_roundtrip;
          Alcotest.test_case "distinct precedence" `Quick test_distinct_precedence;
          Alcotest.test_case "selection scope" `Quick test_select_scope;
          Alcotest.test_case "copy isolation" `Quick test_copy_isolated;
          Alcotest.test_case "enumerations" `Quick test_enumerations;
          Alcotest.test_case "version counter" `Quick test_version_counter;
          Alcotest.test_case "fingerprint bytes" `Quick test_fingerprint_bytes ] );
      ( "priors",
        [ Alcotest.test_case "seven priors" `Quick test_all_priors_listed;
          Alcotest.test_case "by name" `Quick test_by_name;
          Alcotest.test_case "discrete point mass" `Quick test_discrete_point_mass;
          Alcotest.test_case "spike-and-slab composition" `Quick test_spike_and_slab_composition;
          Alcotest.test_case "increasing vs decreasing" `Quick test_increasing_vs_decreasing;
          Alcotest.test_case "custom prior" `Quick test_custom_prior;
          Alcotest.test_case "density shapes" `Quick test_density_shapes ] );
      ("properties", qc [ prop_priors_in_support; prop_priors_selection_context ]) ]
