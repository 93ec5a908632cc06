(* The ASCII table layout every report in the repo uses (formerly private
   to Monsoon_harness.Report, which now delegates here). *)

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let table ~title ~header rows =
  let all = header :: rows in
  let n_cols = List.length header in
  let widths =
    List.init n_cols (fun i ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row i with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          0 all)
  in
  let render_row row = "  " ^ String.concat "  " (List.map2 pad widths row) in
  let sep = "  " ^ String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (render_row header ^ "\n");
  Buffer.add_string buf (sep ^ "\n");
  List.iter (fun r -> Buffer.add_string buf (render_row r ^ "\n")) rows;
  Buffer.contents buf

(* --- metric snapshots --- *)

let num v = Printf.sprintf "%.6g" v

let labels_cell labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let instrument_cells = function
  | Registry.Counter c -> ("counter", num (Metric.Counter.value c))
  | Registry.Gauge g -> ("gauge", num (Metric.Gauge.value g))
  | Registry.Histogram h ->
    ( "histogram",
      if Metric.Histogram.count h = 0 then "empty"
      else
        Printf.sprintf "n=%d mean=%s p50=%s p99=%s max=%s"
          (Metric.Histogram.count h)
          (num (Metric.Histogram.mean h))
          (num (Metric.Histogram.quantile h 0.5))
          (num (Metric.Histogram.quantile h 0.99))
          (num (Metric.Histogram.max_value h)) )

let metrics_rows reg =
  List.map
    (fun ((k : Registry.key), inst) ->
      let kind, value = instrument_cells inst in
      [ k.Registry.name; labels_cell k.Registry.labels; kind; value ])
    (Registry.to_list reg)

let metrics_table ?(title = "Telemetry metrics") reg =
  table ~title ~header:[ "Metric"; "Labels"; "Kind"; "Value" ] (metrics_rows reg)

let metrics_json reg =
  let instrument_json = function
    | Registry.Counter c ->
      Json.Obj
        [ ("kind", Json.Str "counter");
          ("value", Json.Num (Metric.Counter.value c)) ]
    | Registry.Gauge g ->
      Json.Obj
        [ ("kind", Json.Str "gauge");
          ("value", Json.Num (Metric.Gauge.value g)) ]
    | Registry.Histogram h ->
      Json.Obj
        [ ("kind", Json.Str "histogram");
          ("count", Json.Num (float_of_int (Metric.Histogram.count h)));
          ("sum", Json.Num (Metric.Histogram.sum h));
          ("buckets",
           Json.Arr
             (List.map
                (fun (bounds, c) ->
                  let lo, hi =
                    match bounds with
                    | None -> (Json.Null, Json.Num 0.0)
                    | Some (lo, hi) -> (Json.Num lo, Json.Num hi)
                  in
                  Json.Obj
                    [ ("lo", lo); ("hi", hi);
                      ("count", Json.Num (float_of_int c)) ])
                (Metric.Histogram.buckets h))) ]
  in
  Json.Arr
    (List.map
       (fun ((k : Registry.key), inst) ->
         Json.Obj
           [ ("name", Json.Str k.Registry.name);
             ("labels",
              Json.Obj (List.map (fun (l, v) -> (l, Json.Str v)) k.Registry.labels));
             ("instrument", instrument_json inst) ])
       (Registry.to_list reg))

(* --- component breakdown --- *)

type component = {
  comp_name : string;
  comp_spans : int;
  comp_seconds : float;
  comp_objects : float;
}

let objects_attr (s : Span.t) =
  match List.assoc_opt "objects" s.Span.attrs with
  | Some (Span.Float v) -> v
  | Some (Span.Int i) -> float_of_int i
  | _ -> 0.0

let breakdown spans =
  let tbl : (string, component) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.t) ->
      let prev =
        Option.value
          ~default:
            { comp_name = s.Span.name; comp_spans = 0; comp_seconds = 0.0;
              comp_objects = 0.0 }
          (Hashtbl.find_opt tbl s.Span.name)
      in
      let d = Span.duration s in
      Hashtbl.replace tbl s.Span.name
        { prev with
          comp_spans = prev.comp_spans + 1;
          comp_seconds = prev.comp_seconds +. (if Float.is_nan d then 0.0 else d);
          comp_objects = prev.comp_objects +. objects_attr s })
    spans;
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
  |> List.sort (fun a b -> compare b.comp_seconds a.comp_seconds)

let component name comps =
  List.find_opt (fun c -> c.comp_name = name) comps

let breakdown_table ?(title = "Component breakdown (from spans)") spans =
  let rows =
    List.map
      (fun c ->
        [ c.comp_name;
          string_of_int c.comp_spans;
          Printf.sprintf "%.4f" c.comp_seconds;
          num c.comp_objects ])
      (breakdown spans)
  in
  table ~title ~header:[ "Component"; "Spans"; "Seconds"; "Objects" ] rows
