open Monsoon_util
open Monsoon_server
open Monsoon_telemetry

type arrival = Closed of int | Open of float

type stop = Requests of int | Duration of float

type config = { arrival : arrival; stop : stop; seed : int }

type sample = {
  s_index : int;
  s_client : int;
  s_query : string;
  s_status : string;
  s_code : int;
  s_latency : float;
}

type result = { samples : sample list; wall : float }

let validate config ~queries =
  if queries = [] then invalid_arg "Loadgen: empty query list";
  (match config.arrival with
  | Closed n when n < 1 -> invalid_arg "Loadgen: clients must be >= 1"
  | Open r when r <= 0.0 -> invalid_arg "Loadgen: rate must be > 0"
  | _ -> ());
  match config.stop with
  | Requests n when n < 0 -> invalid_arg "Loadgen: count must be >= 0"
  | Duration d when d <= 0.0 -> invalid_arg "Loadgen: duration must be > 0"
  | _ -> ()

let schedule config ~queries =
  validate config ~queries;
  match config.stop with
  | Duration _ -> []
  | Requests count ->
    let qs = Array.of_list queries in
    let rng = Rng.create config.seed in
    let clients = match config.arrival with Closed n -> n | Open _ -> 1 in
    List.init count (fun i ->
        (i, i mod clients, qs.(Rng.int rng (Array.length qs))))

(* One issued request, timed on the client side. *)
let issue client ~index ~client_id qname =
  let t0 = Timer.now () in
  let status, code =
    match Load_client.query client qname with
    | Ok o -> (o.Load_client.o_status, o.Load_client.o_code)
    | Error _ -> ("transport", 0)
  in
  { s_index = index;
    s_client = client_id;
    s_query = qname;
    s_status = status;
    s_code = code;
    s_latency = Timer.now () -. t0 }

let run_closed_requests client config ~queries n_clients =
  let sched = schedule config ~queries in
  let results = Array.make (List.length sched) None in
  let per_client c =
    List.iter
      (fun (i, owner, q) ->
        if owner = c then
          results.(i) <- Some (issue client ~index:i ~client_id:c q))
      sched
  in
  let threads =
    List.init n_clients (fun c -> Thread.create per_client c)
  in
  List.iter Thread.join threads;
  (* Flattened in schedule order, independent of thread interleaving. *)
  Array.to_list results |> List.filter_map Fun.id

let run_closed_duration client config ~queries n_clients d =
  let qs = Array.of_list queries in
  let base = Rng.create config.seed in
  let streams = List.init n_clients (fun _ -> Rng.split base) in
  let t_end = Timer.now () +. d in
  let buckets = Array.make n_clients [] in
  let per_client (c, rng) =
    let rec go () =
      if Timer.now () < t_end then begin
        let q = qs.(Rng.int rng (Array.length qs)) in
        buckets.(c) <- issue client ~index:0 ~client_id:c q :: buckets.(c);
        go ()
      end
    in
    go ()
  in
  let threads =
    List.mapi (fun c rng -> Thread.create per_client (c, rng)) streams
  in
  List.iter Thread.join threads;
  Array.to_list buckets
  |> List.concat_map List.rev
  |> List.mapi (fun i s -> { s with s_index = i })

let run_open client config ~queries rate =
  let qs = Array.of_list queries in
  let rng = Rng.create config.seed in
  let stop_at, max_n =
    match config.stop with
    | Duration d -> (Timer.now () +. d, max_int)
    | Requests n -> (infinity, n)
  in
  let results : sample option array =
    Array.make (match config.stop with Requests n -> n | Duration _ -> 0) None
  in
  let overflow = ref [] in
  let overflow_lock = Mutex.create () in
  let threads = ref [] in
  let rec dispatch i t_next =
    if i < max_n && t_next < stop_at then begin
      let now = Timer.now () in
      if t_next > now then Thread.delay (t_next -. now);
      let q = qs.(Rng.int rng (Array.length qs)) in
      let th =
        Thread.create
          (fun () ->
            let s = issue client ~index:i ~client_id:i q in
            if i < Array.length results then results.(i) <- Some s
            else begin
              Mutex.lock overflow_lock;
              overflow := s :: !overflow;
              Mutex.unlock overflow_lock
            end)
          ()
      in
      threads := th :: !threads;
      (* Exponential inter-arrival gap: a seeded Poisson process. *)
      let gap = -.log (1.0 -. Rng.float rng 1.0) /. rate in
      dispatch (i + 1) (t_next +. gap)
    end
  in
  dispatch 0 (Timer.now ());
  List.iter Thread.join !threads;
  let fixed = Array.to_list results |> List.filter_map Fun.id in
  fixed
  @ (List.rev !overflow
    |> List.sort (fun a b -> compare a.s_index b.s_index))

let run client config ~queries =
  validate config ~queries;
  let t0 = Timer.now () in
  let samples =
    match (config.arrival, config.stop) with
    | Closed n, Requests _ -> run_closed_requests client config ~queries n
    | Closed n, Duration d -> run_closed_duration client config ~queries n d
    | Open rate, _ -> run_open client config ~queries rate
  in
  { samples; wall = Timer.now () -. t0 }

(* --- aggregation --- *)

let statuses = [ "ok"; "degraded"; "rejected"; "timeout"; "error"; "transport" ]

type agg = {
  a_query : string;
  a_count : int;
  a_by_status : (string * int) list;
  a_latencies : float array;
}

(* The report's p50, p95 and p99, by nearest rank; 0 for no samples. *)
let p50_95_99 a =
  List.map
    (fun p -> if Array.length a = 0 then 0.0 else Dist.percentile a p)
    [ 50.0; 95.0; 99.0 ]

let aggregate samples =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      if not (Hashtbl.mem tbl s.s_query) then begin
        Hashtbl.replace tbl s.s_query [];
        order := s.s_query :: !order
      end;
      Hashtbl.replace tbl s.s_query (s :: Hashtbl.find tbl s.s_query))
    samples;
  (* Fingerprints in name order: the report must not depend on arrival
     order of the first sample of each query. *)
  List.sort compare !order
  |> List.map (fun q ->
         let ss = Hashtbl.find tbl q in
         { a_query = q;
           a_count = List.length ss;
           a_by_status =
             List.map
               (fun st ->
                 ( st,
                   List.length (List.filter (fun s -> s.s_status = st) ss) ))
               statuses;
           a_latencies = Array.of_list (List.map (fun s -> s.s_latency) ss) })

let secs v = Printf.sprintf "%.4gs" v

let agg_row a =
  let count st = string_of_int (List.assoc st a.a_by_status) in
  [ a.a_query; string_of_int a.a_count ]
  @ List.map count statuses
  @ List.map secs (p50_95_99 a.a_latencies)

let totals_row samples =
  let lats = Array.of_list (List.map (fun s -> s.s_latency) samples) in
  let count st =
    string_of_int (List.length (List.filter (fun s -> s.s_status = st) samples))
  in
  [ "TOTAL"; string_of_int (List.length samples) ]
  @ List.map count statuses
  @ List.map secs (p50_95_99 lats)

let report r =
  let n = List.length r.samples in
  if n = 0 then "Load run: no requests issued\n"
  else
    let throughput = if r.wall > 0.0 then float_of_int n /. r.wall else 0.0 in
    let header =
      [ "Query"; "Count" ]
      @ List.map String.capitalize_ascii statuses
      @ [ "p50"; "p95"; "p99" ]
    in
    Printf.sprintf "Load run: %d requests in %.2fs (%.1f req/s)\n\n%s" n r.wall
      throughput
      (Report.table ~title:"Per-fingerprint breakdown" ~header
         (List.map agg_row (aggregate r.samples) @ [ totals_row r.samples ]))

let to_json r =
  let n = List.length r.samples in
  let count st ss =
    List.length (List.filter (fun s -> s.s_status = st) ss)
  in
  Json.Obj
    [ ("requests", Json.Num (float_of_int n));
      ("wall_s", Json.Num r.wall);
      ( "throughput_rps",
        Json.Num (if r.wall > 0.0 then float_of_int n /. r.wall else 0.0) );
      ( "by_status",
        Json.Obj
          (List.map
             (fun st -> (st, Json.Num (float_of_int (count st r.samples))))
             statuses) );
      ( "per_query",
        Json.Arr
          (List.map
             (fun a ->
               Json.Obj
                 ([ ("query", Json.Str a.a_query);
                    ("count", Json.Num (float_of_int a.a_count)) ]
                 @ List.map
                     (fun (st, c) -> (st, Json.Num (float_of_int c)))
                     a.a_by_status
                 @ List.map2
                     (fun k v -> (k, Json.Num v))
                     [ "p50_s"; "p95_s"; "p99_s" ]
                     (p50_95_99 a.a_latencies)))
             (aggregate r.samples)) ) ]
