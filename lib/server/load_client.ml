open Monsoon_telemetry

type conn = { fd : Unix.file_descr; rd : Http.reader }

type http_state = {
  host : string;
  port : int;
  pool_lock : Mutex.t;
  idle : conn Queue.t;  (* connections the server kept alive *)
  mutable connects : int;  (* fresh TCP connects made so far *)
}

type t = In_process of Server.t | Http of http_state

let in_process s = In_process s

let http ?(host = "127.0.0.1") ~port () =
  Http
    { host; port; pool_lock = Mutex.create (); idle = Queue.create ();
      connects = 0 }

let connections = function
  | In_process _ -> 0
  | Http state -> Mutex.protect state.pool_lock (fun () -> state.connects)

type outcome = {
  o_query : string;
  o_status : string;
  o_code : int;
  o_cost : float;
  o_latency : float;
  o_queue_wait : float;
}

(* --- HTTP/1.1 with keep-alive connection reuse --- *)

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let take_idle state =
  Mutex.protect state.pool_lock (fun () -> Queue.take_opt state.idle)

let return_idle state c =
  Mutex.protect state.pool_lock (fun () -> Queue.push c state.idle)

let connect_fresh state =
  match
    let addr =
      try Unix.inet_addr_of_string state.host
      with Failure _ -> (Unix.gethostbyname state.host).Unix.h_addr_list.(0)
    in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (addr, state.port));
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | exception Not_found -> Error ("unknown host: " ^ state.host)
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | fd ->
    Mutex.protect state.pool_lock (fun () ->
        state.connects <- state.connects + 1);
    Ok { fd; rd = Http.fd_reader fd }

(* One request-response exchange. Connections the server keeps alive go
   back to the idle pool for the next request; a reused connection that
   fails (the server may have closed it between requests) is retried once
   on a fresh one before the failure is reported. *)
let http_request state ~meth ~path ~body =
  let request =
    Http.render_request
      ~host:(Printf.sprintf "%s:%d" state.host state.port)
      { Http.meth; path; body; keep_alive = true }
  in
  let exchange c =
    match
      Http.write_all c.fd request;
      Http.read_response c.rd
    with
    | r -> r
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  in
  let rec go ~may_retry c =
    match exchange c with
    | Ok (code, body, keep_alive) ->
      if keep_alive then return_idle state c else close_conn c;
      Ok (code, body)
    | Error msg ->
      close_conn c;
      if may_retry then fresh () else Error msg
  and fresh () = Result.bind (connect_fresh state) (go ~may_retry:false) in
  match take_idle state with
  | Some c -> go ~may_retry:true c
  | None -> fresh ()

(* --- the interface --- *)

let parse_outcome qname code body =
  match Json.of_string body with
  | Error m -> Error ("unparseable response body: " ^ m)
  | Ok j -> (
    let str k = Option.bind (Json.member k j) Json.to_str in
    let num k = Option.bind (Json.member k j) Json.to_float in
    match (str "status", num "cost", num "latency_s", num "queue_wait_s") with
    | Some st, Some c, Some l, Some qw ->
      Ok
        { o_query = qname;
          o_status = st;
          o_code = code;
          o_cost = c;
          o_latency = l;
          o_queue_wait = qw }
    | _ -> Error "response body missing fields")

let query t qname =
  match t with
  | In_process s ->
    let r = Server.submit s qname in
    Ok
      { o_query = qname;
        o_status = Slo.outcome_label r.Server.rs_outcome;
        o_code = r.Server.rs_code;
        o_cost = r.Server.rs_cost;
        o_latency = r.Server.rs_latency;
        o_queue_wait = r.Server.rs_queue_wait }
  | Http state -> (
    let body = Json.to_string (Json.Obj [ ("query", Json.Str qname) ]) in
    match http_request state ~meth:"POST" ~path:"/query" ~body with
    | Error _ as e -> e
    | Ok (code, body) -> parse_outcome qname code body)

(* GET [path]: the body of a 200, else an error naming the status. *)
let get state path =
  match http_request state ~meth:"GET" ~path ~body:"" with
  | Ok (200, body) -> Ok body
  | Ok (code, _) -> Error (Printf.sprintf "%s answered %d" path code)
  | Error _ as e -> e

let queries t =
  match t with
  | In_process s -> Ok (Server.queries s)
  | Http state -> (
    match get state "/queries" with
    | Error _ as e -> e
    | Ok body -> (
      match Json.of_string body with
      | Ok (Json.Arr items) -> Ok (List.filter_map Json.to_str items)
      | Ok _ -> Error "expected a JSON array of query names"
      | Error m -> Error ("unparseable /queries body: " ^ m)))

let slo_report t =
  match t with
  | In_process s -> Ok (Slo.report (Server.slo s))
  | Http state -> get state "/slo"
