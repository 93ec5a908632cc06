type record = {
  r_trace : string;
  r_query : string;
  r_strategy : string;
  r_outcome : string;
  r_latency : float;
  r_queue_wait : float;
  r_cost : float;
  r_result_card : float;
  r_steps : int;
  r_replans : int;
  r_executes : int;
  r_degraded : int;
  r_fault_detail : string list;
  r_worst_q_error : float option;
  r_detail : string;
  r_plan : string;
}

(* The plan column is a summary, not an archive: explain captures keep the
   full tree, the qlog keeps enough to tell plans apart. *)
let truncate_plan s =
  if String.length s <= 200 then s else String.sub s 0 197 ^ "..."

let of_events ~trace ~query ~strategy ~outcome ~latency ~queue_wait
    ?(cost = 0.0) ?(result_card = 0.0) ?(plan = "") ?(detail = "") events =
  let steps = ref 0 in
  let cost = ref cost in
  let result_card = ref result_card in
  let replans = ref 0 in
  let executes = ref 0 in
  let degraded = ref 0 in
  let fault_detail = ref [] in
  let worst_q = ref None in
  List.iter
    (fun (ev : Recorder.event) ->
      match ev with
      | Recorder.Decision _ -> incr replans
      | Recorder.Executed { nodes; _ } ->
        incr executes;
        List.iter
          (fun (n : Recorder.exec_node) ->
            match n.Recorder.node_q_error with
            | None -> ()
            | Some q ->
              worst_q :=
                Some (match !worst_q with None -> q | Some w -> Float.max w q))
          nodes
      | Recorder.Degraded { reason; fallback; _ } ->
        incr degraded;
        fault_detail := Printf.sprintf "%s -> %s" reason fallback :: !fault_detail
      | Recorder.Query_finish { steps = s; cost = c; result_card = rc; _ } ->
        steps := s;
        cost := c;
        result_card := rc
      | Recorder.Query_start _ | Recorder.Stat_observed _ | Recorder.Note _ ->
        ())
    events;
  { r_trace = trace;
    r_query = query;
    r_strategy = strategy;
    r_outcome = outcome;
    r_latency = latency;
    r_queue_wait = queue_wait;
    r_cost = !cost;
    r_result_card = !result_card;
    r_steps = !steps;
    r_replans = !replans;
    r_executes = !executes;
    r_degraded = !degraded;
    r_fault_detail = List.rev !fault_detail;
    r_worst_q_error = !worst_q;
    r_detail = detail;
    r_plan = truncate_plan plan }

(* --- JSON --- *)

let to_json r =
  Json.Obj
    [ ("trace", Json.Str r.r_trace);
      ("query", Json.Str r.r_query);
      ("strategy", Json.Str r.r_strategy);
      ("outcome", Json.Str r.r_outcome);
      ("latency_s", Json.Num r.r_latency);
      ("queue_wait_s", Json.Num r.r_queue_wait);
      ("cost", Json.Num r.r_cost);
      ("result_card", Json.Num r.r_result_card);
      ("steps", Json.Num (float_of_int r.r_steps));
      ("replans", Json.Num (float_of_int r.r_replans));
      ("executes", Json.Num (float_of_int r.r_executes));
      ("degraded", Json.Num (float_of_int r.r_degraded));
      ("fault_detail", Json.Arr (List.map (fun s -> Json.Str s) r.r_fault_detail));
      ("worst_q_error",
       match r.r_worst_q_error with None -> Json.Null | Some q -> Json.Num q);
      ("detail", Json.Str r.r_detail);
      ("plan", Json.Str r.r_plan) ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let str name =
    match Option.bind (Json.member name j) Json.to_str with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "qlog record: missing or bad %S" name)
  in
  let num name =
    match Option.bind (Json.member name j) Json.to_float with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "qlog record: missing or bad %S" name)
  in
  let int name = Result.map int_of_float (num name) in
  let* trace = str "trace" in
  let* query = str "query" in
  let* strategy = str "strategy" in
  let* outcome = str "outcome" in
  let* latency = num "latency_s" in
  let* queue_wait = num "queue_wait_s" in
  let* cost = num "cost" in
  let* result_card = num "result_card" in
  let* steps = int "steps" in
  let* replans = int "replans" in
  let* executes = int "executes" in
  let* degraded = int "degraded" in
  let* detail = str "detail" in
  let* plan = str "plan" in
  let fault_detail =
    match Json.member "fault_detail" j with
    | Some (Json.Arr items) -> List.filter_map Json.to_str items
    | _ -> []
  in
  let worst_q_error = Option.bind (Json.member "worst_q_error" j) Json.to_float in
  Ok
    { r_trace = trace;
      r_query = query;
      r_strategy = strategy;
      r_outcome = outcome;
      r_latency = latency;
      r_queue_wait = queue_wait;
      r_cost = cost;
      r_result_card = result_card;
      r_steps = steps;
      r_replans = replans;
      r_executes = executes;
      r_degraded = degraded;
      r_fault_detail = fault_detail;
      r_worst_q_error = worst_q_error;
      r_detail = detail;
      r_plan = plan }

(* --- the bounded writer --- *)

type t = {
  w_path : string;
  max_bytes : int;
  mutable oc : out_channel option;
  mutable bytes : int;  (* size of the live file, maintained on append *)
}

let create ?(max_bytes = 64 * 1024 * 1024) path =
  if path = "" then Error "qlog: empty path"
  else
    try
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      let bytes =
        try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0
      in
      Ok { w_path = path; max_bytes = max 4096 max_bytes; oc = Some oc; bytes }
    with Sys_error msg -> Error (Printf.sprintf "qlog: cannot open %s: %s" path msg)

let path t = t.w_path

let rotate t oc =
  (try close_out oc with Sys_error _ -> ());
  (* POSIX rename replaces the previous rotation, so disk use is bounded
     by roughly twice [max_bytes] however long the process runs. *)
  (try Sys.rename t.w_path (t.w_path ^ ".1") with Sys_error _ -> ());
  match open_out_gen [ Open_append; Open_creat ] 0o644 t.w_path with
  | oc ->
    t.oc <- Some oc;
    t.bytes <- 0
  | exception Sys_error _ -> t.oc <- None

let append t r =
  let line = Json.to_string (to_json r) ^ "\n" in
  Span.with_line_lock (fun () ->
      (match t.oc with
      | Some oc when t.bytes > 0 && t.bytes + String.length line > t.max_bytes
        ->
        rotate t oc
      | _ -> ());
      match t.oc with
      | None -> ()
      | Some oc -> (
        try
          output_string oc line;
          t.bytes <- t.bytes + String.length line
        with Sys_error _ -> ()))

let close t =
  Span.with_line_lock (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        (try close_out oc with Sys_error _ -> ()))

let load p =
  let ( let* ) r f = Result.bind r f in
  match open_in p with
  | exception Sys_error msg -> Error (Printf.sprintf "qlog: cannot read: %s" msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc lineno =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | "" -> go acc (lineno + 1)
          | line ->
            let* j =
              Result.map_error
                (fun e -> Printf.sprintf "line %d: %s" lineno e)
                (Json.of_string line)
            in
            let* r =
              Result.map_error
                (fun e -> Printf.sprintf "line %d: %s" lineno e)
                (of_json j)
            in
            go (r :: acc) (lineno + 1)
        in
        go [] 1)

(* --- aggregation --- *)

let num v = Printf.sprintf "%.6g" v

(* Canonical fold order: aggregates (float sums included) are identical
   for any append order of the same record multiset, so reports over
   parallel runs are byte-stable. *)
let canonical records =
  List.stable_sort
    (fun a b ->
      compare
        (a.r_query, a.r_strategy, a.r_trace, a.r_cost)
        (b.r_query, b.r_strategy, b.r_trace, b.r_cost))
    records

type class_agg = {
  a_n : int;
  a_ok : int;
  a_degraded : int;
  a_timeout : int;
  a_error : int;
  a_rejected : int;
  a_cost_sum : float;
  a_replans_sum : int;
  a_worst_q : float option;
}

let empty_agg =
  { a_n = 0; a_ok = 0; a_degraded = 0; a_timeout = 0; a_error = 0;
    a_rejected = 0; a_cost_sum = 0.0; a_replans_sum = 0; a_worst_q = None }

(* Rejected requests never executed anything: their zero cost would skew
   the per-class mean, so cost and replans aggregate over served records
   only (the outcome columns still count them). *)
let add_record a r =
  let served = r.r_outcome <> "rejected" in
  { a_n = a.a_n + 1;
    a_ok = (a.a_ok + if r.r_outcome = "ok" then 1 else 0);
    a_degraded = (a.a_degraded + if r.r_outcome = "degraded" then 1 else 0);
    a_timeout = (a.a_timeout + if r.r_outcome = "timeout" then 1 else 0);
    a_error = (a.a_error + if r.r_outcome = "error" then 1 else 0);
    a_rejected = (a.a_rejected + if r.r_outcome = "rejected" then 1 else 0);
    a_cost_sum = (a.a_cost_sum +. if served then r.r_cost else 0.0);
    a_replans_sum = (a.a_replans_sum + if served then r.r_replans else 0);
    a_worst_q =
      (match (r.r_worst_q_error, a.a_worst_q) with
      | None, w -> w
      | Some q, None -> Some q
      | Some q, Some w -> Some (Float.max q w)) }

let served a = a.a_n - a.a_rejected

let mean_cost a =
  if served a = 0 then 0.0 else a.a_cost_sum /. float_of_int (served a)

let mean_replans a =
  if served a = 0 then 0.0
  else float_of_int a.a_replans_sum /. float_of_int (served a)

let by_class records =
  let tbl : (string, class_agg) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let prev =
        Option.value ~default:empty_agg (Hashtbl.find_opt tbl r.r_query)
      in
      Hashtbl.replace tbl r.r_query (add_record prev r))
    (canonical records);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let q_cell = function None -> "-" | Some q -> Printf.sprintf "%.2f" q

let class_table records =
  let rows =
    List.map
      (fun (klass, a) ->
        [ klass; string_of_int a.a_n; string_of_int a.a_ok;
          string_of_int a.a_degraded; string_of_int a.a_timeout;
          string_of_int a.a_error; string_of_int a.a_rejected;
          num (mean_cost a); Printf.sprintf "%.1f" (mean_replans a);
          q_cell a.a_worst_q ])
      (by_class records)
  in
  Snapshot.table ~title:"Per-class summary"
    ~header:
      [ "Class"; "N"; "OK"; "Degr"; "TO"; "Err"; "Rej"; "Mean cost";
        "Replans"; "Worst q-err" ]
    rows

let top_slow ?(top = 10) records =
  let slow =
    List.stable_sort (fun a b -> compare b.r_latency a.r_latency)
      (canonical records)
    |> List.filteri (fun i _ -> i < top)
  in
  if slow = [] then ""
  else
    Snapshot.table
      ~title:(Printf.sprintf "Slowest requests (top %d by latency)" (List.length slow))
      ~header:[ "Trace"; "Class"; "Strategy"; "Outcome"; "Latency"; "Cost" ]
      (List.map
         (fun r ->
           [ r.r_trace; r.r_query; r.r_strategy; r.r_outcome;
             Printf.sprintf "%.4gs" r.r_latency; num r.r_cost ])
         slow)

let worst_misestimates ?(top = 10) records =
  let ranked =
    canonical records
    |> List.filter_map (fun r -> Option.map (fun q -> (q, r)) r.r_worst_q_error)
    |> List.stable_sort (fun ((a : float), _) (b, _) -> compare b a)
    |> List.filteri (fun i _ -> i < top)
  in
  if ranked = [] then ""
  else
    Snapshot.table
      ~title:
        (Printf.sprintf "Worst cardinality misestimates (top %d by q-error)"
           (List.length ranked))
      ~header:[ "Trace"; "Class"; "Strategy"; "Q-error"; "Cost" ]
      (List.map
         (fun (q, r) ->
           [ r.r_trace; r.r_query; r.r_strategy; Printf.sprintf "%.2f" q;
             num r.r_cost ])
         ranked)

let report ?top records =
  if records = [] then "Query log: no records\n"
  else begin
    let n = List.length records in
    let classes = List.length (by_class records) in
    let header =
      Printf.sprintf "Query log: %d records over %d classes\n" n classes
    in
    let parts =
      [ header; class_table records; top_slow ?top records;
        worst_misestimates ?top records ]
    in
    String.concat "\n" (List.filter (fun s -> s <> "") parts)
  end

(* --- the regression differ --- *)

let diff_report ?(threshold = 1.1) ~old_ new_ =
  let old_by = by_class old_ and new_by = by_class new_ in
  let classes =
    List.sort_uniq compare (List.map fst old_by @ List.map fst new_by)
  in
  let regressions = ref 0 and improvements = ref 0 in
  let rows =
    List.map
      (fun klass ->
        let o = List.assoc_opt klass old_by in
        let n = List.assoc_opt klass new_by in
        match (o, n) with
        | None, None -> assert false
        | Some _, None ->
          incr regressions;
          [ klass; "-"; "missing"; "-"; "-"; "-"; "REGRESSED (lost)" ]
        | None, Some n ->
          [ klass; "new"; num (mean_cost n); "-"; "-"; "-"; "new" ]
        | Some o, Some n ->
          (* +1 on both sides: zero-cost classes (everything rejected or
             pruned) diff as flat instead of dividing by zero. *)
          let ratio = (mean_cost n +. 1.0) /. (mean_cost o +. 1.0) in
          let worse_outcomes =
            n.a_timeout > o.a_timeout || n.a_error > o.a_error
          in
          let verdict =
            if ratio > threshold || worse_outcomes then begin
              incr regressions;
              "REGRESSED"
            end
            else if ratio < 1.0 /. threshold then begin
              incr improvements;
              "improved"
            end
            else "ok"
          in
          [ klass; num (mean_cost o); num (mean_cost n);
            Printf.sprintf "%+.1f%%" (100.0 *. (ratio -. 1.0));
            Printf.sprintf "%d->%d" o.a_timeout n.a_timeout;
            Printf.sprintf "%d->%d" o.a_error n.a_error; verdict ])
      classes
  in
  let table =
    Snapshot.table ~title:"Per-class cost diff (old vs new)"
      ~header:[ "Class"; "Cost old"; "Cost new"; "Delta"; "TO"; "Err"; "Verdict" ]
      rows
  in
  let summary =
    Printf.sprintf
      "Qlog diff: %d classes, %d regressions, %d improvements (threshold \
       %.2fx; deterministic fields only — latency never compared)\n"
      (List.length classes) !regressions !improvements threshold
  in
  (summary ^ "\n" ^ table, !regressions)
