(* Row-id arenas: an executor's ids live in chunks it borrows from its
   domain's cache and gives back on release. These tests pin the
   lifetime contract: a pass that repeats earlier work allocates no
   chunk, an executor that runs on recycled chunks sees exactly what a
   fresh one sees, two live executors never share a chunk, and a
   released executor holds no intermediate.

   Each test runs in a domain of its own, so it starts from an empty
   cache. The data are the end-to-end benchmark's ott-exec set (OTT at
   scale 0.3, domain 100); its heaviest query under the benchmark's
   planner RNG is oq15, whose Monsoon run materializes a 2.6 M-tuple
   intermediate. *)

open Monsoon_util
open Monsoon_relalg
open Monsoon_workloads
open Monsoon_baselines
open Monsoon_telemetry
module E = Monsoon_exec.Executor
module I = Monsoon_exec.Intermediate
module R = Row_engine

let ott = lazy (Ott.workload { Ott.seed = 42; scale = 0.3; domain = 100 })

let in_fresh_domain f = Domain.join (Domain.spawn f)

let count ctx name = Metric.Counter.value (Ctx.counter ctx name)

let monsoon = Strategy.monsoon ~iterations:50 Monsoon_stats.Prior.spike_and_slab

(* One Monsoon run of [name] as the benchmark makes it, on [ctx]. *)
let run_monsoon ctx name =
  let w = Lazy.force ott in
  monsoon.Strategy.run ~env:(Ctx.to_env ctx)
    ~rng:
      (Monsoon_harness.Runner.cell_rng ~seed:42 ~strategy:"Monsoon"
         ~query:name)
    ~budget:1e7 w.Workload.catalog
    (Workload.find_query w name)

let test_second_pass_fresh_free () =
  in_fresh_domain (fun () ->
      let ctx = Ctx.create () in
      let w = Lazy.force ott in
      let pass () =
        let f0 = count ctx "exec.id_chunks_fresh"
        and w0 = count ctx "exec.id_words_carved" in
        let outcomes =
          List.map
            (fun (name, _) ->
              let o = run_monsoon ctx name in
              Printf.sprintf "%s:%h:%h" name o.Strategy.cost
                o.Strategy.result_card)
            w.Workload.queries
        in
        ( count ctx "exec.id_chunks_fresh" -. f0,
          count ctx "exec.id_words_carved" -. w0,
          String.concat " " outcomes )
      in
      let fresh1, words1, out1 = pass () in
      let fresh2, words2, out2 = pass () in
      Alcotest.(check bool) "the first pass allocates chunks" true
        (fresh1 > 0.0);
      Alcotest.(check (float 0.0)) "the second pass allocates none" 0.0 fresh2;
      Alcotest.(check (float 0.0)) "both passes carve alike" words1 words2;
      Alcotest.(check string) "both passes end alike" out1 out2)

(* A digest of the ids an intermediate holds, tuple by tuple. *)
let ids_digest (inter : I.t) =
  let h = ref (Int64.of_int inter.I.card) in
  Array.iter
    (fun ids ->
      for i = 0 to inter.I.card - 1 do
        h := Hashing.combine !h (Int64.of_int ids.{i})
      done)
    inter.I.ids;
  !h

let exec_counters =
  [ "exec.tuples_scanned"; "exec.tuples_built"; "exec.tuples_probed";
    "exec.tuples_emitted"; "exec.sigma_objects"; "exec.budget_spent";
    "exec.fused_ops"; "exec.scalar_fallbacks"; "exec.id_words_carved" ]

(* Runs [steps] on one executor and releases it. The fingerprint lists,
   per step, the charged cost (or the exception), every node's rows and
   Σ distincts and the ids of every intermediate it materialized; then
   the exec.* counters but the fresh-chunk count, and the remaining
   budget's bits. Also returns the chunks it allocated. *)
let fingerprint ~budget name steps =
  let w = Lazy.force ott in
  let q = Workload.find_query w name in
  let ctx = Ctx.create () in
  let bud = E.budget budget in
  let exec = E.create ~env:(Ctx.to_env ctx) w.Workload.catalog q bud in
  let step e =
    let head =
      match E.execute exec e with
      | cost -> Printf.sprintf "cost=%h" cost
      | exception E.Timeout -> "timeout"
      | exception Invalid_argument msg -> "raise:" ^ msg
    in
    let nodes =
      List.map
        (fun (n : E.node) ->
          let ids =
            match E.materialized exec (Expr.mask n.E.expr) with
            | Some inter when n.E.complete ->
              Printf.sprintf "%Lx" (ids_digest inter)
            | _ -> "-"
          in
          Printf.sprintf "%s rows=%h dist=[%s] ids=%s" (Expr.key n.E.expr)
            n.E.rows
            (String.concat ","
               (List.map (fun (tm, d) -> Printf.sprintf "%d=%h" tm d)
                  n.E.distincts))
            ids)
        (E.nodes exec)
    in
    String.concat "\n  " (head :: nodes)
  in
  let steps = List.map step steps in
  let fresh = count ctx "exec.id_chunks_fresh" in
  E.release exec;
  ( String.concat "\n"
      (steps
      @ List.map (fun c -> Printf.sprintf "%s=%h" c (count ctx c)) exec_counters
      @ [ Printf.sprintf "left=%Lx" (Int64.bits_of_float bud.E.remaining) ]),
    fresh )

(* oq15's Monsoon run under the benchmark's RNG, one EXECUTE plan per
   step: instances 0..4 are ott2..ott6. *)
let heavy =
  let m l = Expr.leaf (Relset.of_list l) in
  [ Expr.stats (Expr.base 0);
    Expr.stats (Expr.base 4);
    Expr.join (Expr.base 2) (Expr.base 3);
    Expr.stats (Expr.base 2);
    Expr.join (Expr.base 1) (m [ 2; 3 ]);
    Expr.join (Expr.join (Expr.base 0) (m [ 1; 2; 3 ])) (Expr.base 4) ]

let light = [ Expr.join (Expr.join (Expr.base 0) (Expr.base 1)) (Expr.base 2) ]

let test_heavy_light_heavy () =
  (* 1e7 runs every step; 1e6 dies inside the 2.6 M-tuple join. *)
  List.iter
    (fun budget ->
      in_fresh_domain (fun () ->
          let label = Printf.sprintf "budget %g" budget in
          let first, fresh1 = fingerprint ~budget "oq15" heavy in
          ignore (fingerprint ~budget:1e7 "oq2" light);
          let again, fresh2 = fingerprint ~budget "oq15" heavy in
          Alcotest.(check bool) (label ^ ": the first run allocates") true
            (fresh1 > 0.0);
          Alcotest.(check (float 0.0)) (label ^ ": the rerun recycles") 0.0
            fresh2;
          Alcotest.(check string) (label ^ ": recycled = fresh") first again))
    [ 1e7; 1e6 ]

(* Executor [a] keeps (ott4 ⨝ ott5) of oq15 live while a whole Monsoon
   run of oq15 borrows, writes and gives back chunks on the same domain;
   then [a] finishes its steps. Its intermediate keeps its ids, and every
   step agrees with the row engine's. *)
let test_live_executors_disjoint () =
  in_fresh_domain (fun () ->
      let w = Lazy.force ott in
      let cat = w.Workload.catalog and q = Workload.find_query w "oq15" in
      (* Warm the cache, so both executors borrow. *)
      ignore (run_monsoon (Ctx.create ()) "oq15");
      let j23 = Expr.join (Expr.base 2) (Expr.base 3) in
      let m23 = Expr.leaf (Expr.mask j23) in
      let steps = [ j23; Expr.stats m23; Expr.join m23 (Expr.base 4) ] in
      let a = E.create cat q (E.budget 1e7) in
      let r = R.create cat q (R.budget 1e7) in
      let step ~between e =
        let cost = E.execute a e in
        between ();
        let rcost, obs = R.execute r e in
        let label = Expr.key e in
        Alcotest.(check (float 0.0)) (label ^ ": cost") rcost cost;
        Alcotest.(check (list (pair int (float 0.0))))
          (label ^ ": distincts") obs.R.obs_distincts
          (List.concat_map (fun (n : E.node) -> n.E.distincts) (E.nodes a));
        Alcotest.(check bool) (label ^ ": rows") true
          (E.result_rows a e = R.result_rows r e)
      in
      let digest () =
        ids_digest (Option.get (E.materialized a (Expr.mask j23)))
      in
      step ~between:ignore (List.hd steps);
      let before = digest () in
      step
        ~between:(fun () -> ignore (run_monsoon (Ctx.create ()) "oq15"))
        (List.nth steps 1);
      Alcotest.(check int64) "live ids untouched" before (digest ());
      step ~between:ignore (List.nth steps 2);
      E.release a)

let test_release_empties () =
  in_fresh_domain @@ fun () ->
  let w = Lazy.force ott in
  let q = Workload.find_query w "oq2" in
  let exec = E.create w.Workload.catalog q (E.budget 1e7) in
  let plan = List.hd light in
  ignore (E.execute exec plan);
  let masks = List.map fst (Expr.join_nodes plan) in
  Alcotest.(check bool) "materialized before" true
    (E.materialized exec (Expr.mask plan) <> None);
  E.release exec;
  List.iter
    (fun m ->
      Alcotest.(check bool) "none after release" true
        (E.materialized exec m = None))
    (Expr.mask plan :: masks @ [ Relset.singleton 0 ]);
  (* A released executor starts over from an empty cache. *)
  ignore (E.execute exec plan);
  Alcotest.(check bool) "usable after release" true
    (E.materialized exec (Expr.mask plan) <> None);
  E.release exec;
  (* Released twice, it gave back each chunk once: a Monsoon run that
     borrows while [y] holds its chunk writes elsewhere. *)
  let j01 = Expr.join (Expr.base 0) (Expr.base 1) in
  let y = E.create w.Workload.catalog q (E.budget 1e7) in
  ignore (E.execute y j01);
  let digest () = ids_digest (Option.get (E.materialized y (Expr.mask j01))) in
  let before = digest () in
  ignore (run_monsoon (Ctx.create ()) "oq15");
  Alcotest.(check int64) "live ids untouched" before (digest ());
  E.release y

let () =
  Alcotest.run "arena"
    [ ( "lifetime",
        [ Alcotest.test_case "second pass allocates no chunk" `Quick
            test_second_pass_fresh_free;
          Alcotest.test_case "heavy, light, heavy" `Quick
            test_heavy_light_heavy;
          Alcotest.test_case "live executors share no chunk" `Quick
            test_live_executors_disjoint;
          Alcotest.test_case "release empties the store" `Quick
            test_release_empties ] ) ]
