(* Comparing two sets of benchmark runs, A (the baseline) and B (the
   change), per (workload, end-to-end metric), against the metric's bound. *)

open Monsoon_telemetry

type run = { workload : string; seed : int; values : (string * float) list }

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* An untraced result file written by [main.exe --out]; [None] for traced
   ones, which carry no end-to-end metrics. *)
let run_of_json json =
  let ( let* ) = Option.bind in
  let* workload = Option.bind (Json.member "workload" json) Json.to_str in
  let* seed = Option.bind (Json.member "seed" json) Json.to_int in
  let* traced = Json.member "trace" json in
  let* metrics = Option.bind (Json.member "result" json) (Json.member "metrics") in
  match (traced, metrics) with
  | Json.Bool false, Json.Obj fields ->
    Some
      { workload;
        seed;
        values =
          List.filter_map
            (fun (name, m) ->
              Option.map (fun v -> (name, v)) (Option.bind (Json.member "value" m) Json.to_float))
            fields }
  | _ -> None

let load_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         let text = In_channel.with_open_text (Filename.concat dir f) In_channel.input_all in
         match Json.of_string text with
         | Ok json -> run_of_json json
         | Error e -> failwith (Printf.sprintf "%s: %s" (Filename.concat dir f) e))

let better (spec : Metrics.spec) x y =
  match spec.Metrics.better with Metrics.Lower -> x < y | Metrics.Higher -> x > y

type row = {
  r_workload : string;
  r_metric : Metrics.spec;
  a : float * float * float;  (** quartiles: q1, median, q3 *)
  b : float * float * float;
  wins : int;  (** pairs (same seed) where B reads better; ties count for neither *)
  pairs : int;
  verdict : verdict;
}

(* A gain needs B to win nine tenths of the pairs and the medians to
   differ by more than A's own interquartile range; a spread wider than the
   bound leaves the metric unresolved unless every B run reads better than
   every A run; otherwise B's median may be worse than A's by at most the
   bound. *)
let judge (spec : Metrics.spec) ~a ~b ~pairs =
  let bound = Option.get spec.Metrics.bound in
  let a1, am, a3 = Metrics.quartiles a and b1, bm, b3 = Metrics.quartiles b in
  let spread = Float.max (Metrics.ratio (a3 -. a1) am) (Metrics.ratio (b3 -. b1) bm) in
  let worse_share =
    match spec.Metrics.better with
    | Metrics.Lower -> Metrics.ratio (bm -. am) am
    | Metrics.Higher -> Metrics.ratio (am -. bm) am
  in
  let wins = List.length (List.filter (fun (x, y) -> better spec y x) pairs) in
  let all_better = List.for_all (fun y -> List.for_all (better spec y) a) b in
  let verdict =
    if pairs <> [] && 10 * wins >= 9 * List.length pairs && better spec bm am
       && Float.abs (bm -. am) > a3 -. a1
    then Improved
    else if spread > bound && not all_better then Unresolved
    else if worse_share > bound then Worse
    else Unchanged
  in
  (verdict, wins)

let compare_runs runs_a runs_b =
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (runs_a @ runs_b))
  in
  List.concat_map
    (fun wl ->
      let side runs = List.filter (fun r -> r.workload = wl) runs in
      let ra = side runs_a and rb = side runs_b in
      List.filter_map
        (fun (spec : Metrics.spec) ->
          let values rs = List.filter_map (fun r -> List.assoc_opt spec.Metrics.name r.values) rs in
          let a = values ra and b = values rb in
          if a = [] || b = [] then None
          else
            let pairs =
              List.filter_map
                (fun x ->
                  match List.find_opt (fun y -> y.seed = x.seed) rb with
                  | Some y -> (
                    match
                      (List.assoc_opt spec.Metrics.name x.values,
                       List.assoc_opt spec.Metrics.name y.values)
                    with
                    | Some u, Some v -> Some (u, v)
                    | _ -> None)
                  | None -> None)
                ra
            in
            let verdict, wins = judge spec ~a ~b ~pairs in
            Some
              { r_workload = wl;
                r_metric = spec;
                a = Metrics.quartiles a;
                b = Metrics.quartiles b;
                wins;
                pairs = List.length pairs;
                verdict })
        Metrics.end_to_end)
    workloads

let render rows =
  let q (q1, m, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
  Snapshot.table ~title:"End-to-end comparison: A (baseline) vs B (change)"
    ~header:[ "workload"; "metric"; "A median [q1, q3]"; "B median [q1, q3]"; "B won"; "bound"; "verdict" ]
    (List.map
       (fun r ->
         [ r.r_workload;
           r.r_metric.Metrics.name ^ " (" ^ r.r_metric.Metrics.unit_ ^ ")";
           q r.a;
           q r.b;
           Printf.sprintf "%d/%d" r.wins r.pairs;
           Printf.sprintf "%g" (Option.get r.r_metric.Metrics.bound);
           verdict_name r.verdict ])
       rows)
