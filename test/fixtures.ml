(* Shared fixtures: the paper's Section 2.3 query, small synthetic data with
   controllable distinct counts, and a nested-loop join oracle. *)

open Monsoon_util
open Monsoon_storage
open Monsoon_relalg

let int_schema cols =
  Schema.make (List.map (fun name -> { Schema.name; ty = Value.TInt }) cols)

(* A table of [n] rows where column [col_i] takes values uniform in
   [0, distinct_i). *)
let make_table rng ~name ~cols n =
  let schema = int_schema (List.map fst cols) in
  let ds = Array.of_list (List.map snd cols) in
  let rows =
    Array.init n (fun _ ->
        Array.map (fun d -> Value.Int (Rng.int rng d)) ds)
  in
  Table.of_row_array ~name schema rows

(* The Sec 2.3 query: SELECT ... FROM R, S, T
   WHERE F1(R.a) = F2(S.b) AND F3(R.c) = F4(T.d).
   All four "UDFs" are identity projections — genuinely opaque to the
   optimizer. Term ids: F1 = 0, F2 = 1, F3 = 2, F4 = 3. *)
let sec23_query () =
  let b = Query.Builder.create ~name:"sec2.3" in
  let r = Query.Builder.rel b ~table:"R" ~alias:"R" in
  let s = Query.Builder.rel b ~table:"S" ~alias:"S" in
  let t = Query.Builder.rel b ~table:"T" ~alias:"T" in
  let f1 = Query.Builder.term b (Udf.identity "a") [ (r, "a") ] in
  let f2 = Query.Builder.term b (Udf.identity "b") [ (s, "b") ] in
  let f3 = Query.Builder.term b (Udf.identity "c") [ (r, "c") ] in
  let f4 = Query.Builder.term b (Udf.identity "d") [ (t, "d") ] in
  Query.Builder.join_pred b f1 f2;
  Query.Builder.join_pred b f3 f4;
  Query.Builder.build b

(* Data realizing one Table-1 scenario, scaled down by [scale] (paper scale:
   c(R)=10^6, c(S)=c(T)=10^4, d(F1,R)=d(F3,R)=10^3, d(F2,S), d(F4,T) ∈
   {1, 10^4}). *)
let sec23_catalog rng ~scale ~d_s ~d_t =
  let c_r = max 1 (1_000_000 / scale) and c_st = max 1 (10_000 / scale) in
  let d_r = max 1 (1_000 / scale) in
  let cat = Catalog.create () in
  Catalog.add cat
    (make_table rng ~name:"R" ~cols:[ ("a", d_r); ("c", d_r) ] c_r);
  Catalog.add cat (make_table rng ~name:"S" ~cols:[ ("b", max 1 d_s) ] c_st);
  Catalog.add cat (make_table rng ~name:"T" ~cols:[ ("d", max 1 d_t) ] c_st);
  cat

(* Cost-model environment with fixed statistics: term id -> d. *)
let fixed_env ~raw ~d =
  { Cost_model.count_of = (fun _ -> None);
    raw_count = (fun i -> raw.(i));
    distinct_of = (fun ~term ~pred:_ ~c_own:_ ~c_partner:_ -> d term.Term.id);
    record_count = (fun _ _ -> ()) }

(* One line per flight-recorder event with the wall time left out, so whole
   driver trajectories can be pinned verbatim. *)
let event_digest =
  let module R = Monsoon_telemetry.Recorder in
  let num = function Some v -> Printf.sprintf "%g" v | None -> "-" in
  function
  | R.Query_start { query; n_rels; _ } ->
    Printf.sprintf "start %s n=%d" query n_rels
  | R.Decision { step; chosen; legal_actions; _ } ->
    Printf.sprintf "decide %d %s of %d" step chosen legal_actions
  | R.Executed { step; nodes; cost; timed_out } ->
    Printf.sprintf "executed %d cost=%g timed_out=%b [%s]" step cost timed_out
      (String.concat "; "
         (List.map
            (fun (n : R.exec_node) ->
              Printf.sprintf "%s@%d pred=%s obs=%s" n.R.node_expr n.R.node_depth
                (num n.R.node_predicted) (num n.R.node_observed))
            nodes))
  | R.Stat_observed { step; pretty; value; _ } ->
    Printf.sprintf "stat %d %s=%g" step pretty value
  | R.Degraded { step; reason; fallback } ->
    Printf.sprintf "degraded %d %s -> %s" step reason fallback
  | R.Note { step; message } -> Printf.sprintf "note %d %s" step message
  | R.Query_finish { steps; cost; timed_out; result_card } ->
    Printf.sprintf "finish steps=%d cost=%g timed_out=%b card=%g" steps cost
      timed_out result_card

(* Brute-force evaluation of a query: nested loops over all instances,
   checking every predicate — the ground-truth result cardinality. *)
let brute_force_count catalog q =
  let n = Query.n_rels q in
  let tables =
    Array.init n (fun i ->
        Table.rows (Catalog.find catalog (Query.rel_by_id q i).Query.table))
  in
  (* Combined layout: concatenate in instance order. *)
  let offsets = Array.make n 0 in
  let width = ref 0 in
  Array.iteri
    (fun i rows ->
      offsets.(i) <- !width;
      width := !width + Array.length rows.(0))
    tables;
  let checkers =
    Array.to_list (Query.preds q)
    |> List.map (fun p ->
           let compile tm =
             Term.compile tm ~col_index:(fun ~rel ~col ->
                 let table =
                   Catalog.find catalog (Query.rel_by_id q rel).Query.table
                 in
                 offsets.(rel) + Schema.index_of (Table.schema table) col)
           in
           match p with
           | Predicate.Join { left; right; _ } ->
             let l = compile left and r = compile right in
             fun row -> Value.equal (l row) (r row)
           | Predicate.Select { term; value; _ } ->
             let tv = compile term in
             fun row -> Value.equal (tv row) value)
  in
  let count = ref 0 in
  let row = Array.make !width Value.Null in
  let rec go i =
    if i = n then begin
      if List.for_all (fun c -> c row) checkers then incr count
    end
    else
      Array.iter
        (fun r ->
          Array.blit r 0 row offsets.(i) (Array.length r);
          go (i + 1))
        tables.(i)
  in
  go 0;
  !count
