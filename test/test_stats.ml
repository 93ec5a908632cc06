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
  Alcotest.(check (list (pair int (float 0.0)))) "original keeps one count"
    [ (1, 10.0) ] (Stats_catalog.counts s);
  Alcotest.(check (list (pair int (float 0.0)))) "copy grew"
    [ (1, 99.0); (2, 20.0) ]
    (List.sort compare (Stats_catalog.counts s'))

let test_enumerations () =
  let s = Stats_catalog.create () in
  Stats_catalog.set_count s 3 5.0;
  Stats_catalog.set_distinct s ~term:1 ~scope:Stats_catalog.Wildcard 2.0;
  Stats_catalog.set_distinct s ~term:1 ~scope:(Stats_catalog.For_pred 0) 3.0;
  Alcotest.(check int) "counts" 1 (List.length (Stats_catalog.counts s));
  Alcotest.(check int) "distincts" 2 (List.length (Stats_catalog.distincts s))

(* The fingerprint is exact: two catalogs share it iff their entries and
   values are equal. The writes collide on purpose: few masks, terms and
   predicates, so overwrites are common; values that agree to four digits
   and the float neighbours of a value; and second sequences that replay
   the first in another order, repeat a write, nudge one value by an ulp,
   or move every entry to another map under the same key and value. *)
type write = Count of int * float | Distinct of int * Stats_catalog.scope * float

let apply writes =
  let s = Stats_catalog.create () in
  List.iter
    (function
      | Count (m, c) -> Stats_catalog.set_count s m c
      | Distinct (term, scope, d) -> Stats_catalog.set_distinct s ~term ~scope d)
    writes;
  s

let show_write = function
  | Count (m, c) -> Printf.sprintf "c %d %h" m c
  | Distinct (tm, scope, d) ->
    Printf.sprintf "d %d@%s %h" tm
      (match scope with
      | Stats_catalog.Wildcard -> "*"
      | Stats_catalog.For_select -> "s"
      | Stats_catalog.For_pred p -> string_of_int p)
      d

let write_pairs =
  let open QCheck.Gen in
  let value =
    oneofl
      [ 0.0; 1.0; 1000.0; 1000.4; Float.succ 1000.0; Float.pred 1000.0; 6009.0 ]
  in
  let scope =
    oneof
      [ return Stats_catalog.Wildcard; return Stats_catalog.For_select;
        map (fun p -> Stats_catalog.For_pred p) (int_bound 2) ]
  in
  let write =
    oneof
      [ map2 (fun m c -> Count (m, c)) (int_bound 2) value;
        map3 (fun tm scope d -> Distinct (tm, scope, d)) (int_bound 2) scope value ]
  in
  let nudge = function
    | Count (m, c) -> Count (m, Float.succ c)
    | Distinct (tm, scope, d) -> Distinct (tm, scope, Float.pred d)
  in
  let move = function
    | Count (k, v) -> Distinct (k, Stats_catalog.Wildcard, v)
    | Distinct (k, Stats_catalog.Wildcard, v) ->
      Distinct (k, Stats_catalog.For_select, v)
    | Distinct (k, Stats_catalog.For_select, v) -> Count (k, v)
    | Distinct (k, Stats_catalog.For_pred p, v) ->
      Distinct (k, Stats_catalog.For_pred (p + 1), v)
  in
  let writes = list_size (int_bound 8) write in
  writes >>= fun a ->
  let pick = if a = [] then write else oneofl a in
  let b =
    frequency
      [ (2, writes);
        (3, shuffle_l a);
        (2, map (fun w -> a @ [ w ]) pick);
        (2, map (fun w -> a @ [ nudge w ]) pick);
        (1, return (a @ a));
        (2, return (List.map move a)) ]
  in
  map (fun b -> (a, b)) b

let prop_fingerprint_exact =
  QCheck.Test.make ~name:"fingerprints equal iff contents equal" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) ->
         let show ws = String.concat "; " (List.map show_write ws) in
         Printf.sprintf "[%s] vs [%s]" (show a) (show b))
       write_pairs)
    (fun (a, b) ->
      let sa = apply a and sb = apply b in
      let same_contents =
        Stats_catalog.counts sa = Stats_catalog.counts sb
        && Stats_catalog.distincts sa = Stats_catalog.distincts sb
      in
      Stats_catalog.fingerprint sa = Stats_catalog.fingerprint sb = same_contents)

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
          Alcotest.test_case "enumerations" `Quick test_enumerations ] );
      ( "priors",
        [ Alcotest.test_case "seven priors" `Quick test_all_priors_listed;
          Alcotest.test_case "by name" `Quick test_by_name;
          Alcotest.test_case "discrete point mass" `Quick test_discrete_point_mass;
          Alcotest.test_case "spike-and-slab composition" `Quick test_spike_and_slab_composition;
          Alcotest.test_case "increasing vs decreasing" `Quick test_increasing_vs_decreasing;
          Alcotest.test_case "custom prior" `Quick test_custom_prior;
          Alcotest.test_case "density shapes" `Quick test_density_shapes ] );
      ( "properties",
        qc
          [ prop_fingerprint_exact; prop_priors_in_support;
            prop_priors_selection_context ] ) ]
