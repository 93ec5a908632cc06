open Monsoon_telemetry

type request = {
  meth : string;
  path : string;
  body : string;
  keep_alive : bool;
}

type response = {
  code : int;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

let text code body = { code; content_type = "text/plain"; headers = []; body }

(* --- rendering --- *)

let reason_phrase = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 413 -> "Payload Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Unknown"

let connection keep_alive = if keep_alive then "keep-alive" else "close"

(* Start line, headers, blank line, body. *)
let message start headers body =
  let fields = List.concat_map (fun (k, v) -> [ k; ": "; v; "\r\n" ]) headers in
  String.concat "" ((start :: "\r\n" :: fields) @ [ "\r\n"; body ])

let render ~keep_alive r =
  message
    (Printf.sprintf "HTTP/1.1 %d %s" r.code (reason_phrase r.code))
    ((("Content-Type", r.content_type)
     :: ("Content-Length", string_of_int (String.length r.body))
     :: r.headers)
    @ [ ("Connection", connection keep_alive) ])
    r.body

let render_request ~host (r : request) =
  message
    (Printf.sprintf "%s %s HTTP/1.1" r.meth r.path)
    [ ("Host", host); ("Content-Type", "application/json");
      ("Content-Length", string_of_int (String.length r.body));
      ("Connection", connection r.keep_alive) ]
    r.body

(* --- reading --- *)

let max_header_bytes = 8192
let max_body_bytes = 65536

(* Unconsumed input is [buf.[pos .. len)]; no "\r\n\r\n" starts before
   offset [scanned] of it, so each search resumes where the last one
   stopped instead of rescanning the whole header block. *)
type reader = {
  read : bytes -> int -> int -> int;
  mutable buf : bytes;
  mutable pos : int;
  mutable len : int;
  mutable scanned : int;
}

let reader read =
  { read; buf = Bytes.create 4096; pos = 0; len = 0; scanned = 0 }

let fd_reader fd =
  let rec read buf off n =
    match Unix.read fd buf off n with
    | got -> got
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read buf off n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
  in
  reader read

let available r = r.len - r.pos

(* Appends more input, first compacting the buffer (or doubling it when
   the unconsumed bytes fill more than half); false at end of input. *)
let fill r =
  if r.len = Bytes.length r.buf then begin
    let avail = available r in
    let cap = Bytes.length r.buf in
    let buf = if 2 * avail > cap then Bytes.create (2 * cap) else r.buf in
    Bytes.blit r.buf r.pos buf 0 avail;
    r.buf <- buf;
    r.pos <- 0;
    r.len <- avail
  end;
  let got = r.read r.buf r.len (Bytes.length r.buf - r.len) in
  r.len <- r.len + got;
  got > 0

let consume r n =
  r.pos <- r.pos + n;
  r.scanned <- 0

(* The next [n] bytes, consumed; [None] if the input ends first. *)
let take r n =
  let rec await () = available r >= n || (fill r && await ()) in
  if not (await ()) then None
  else begin
    let s = Bytes.sub_string r.buf r.pos n in
    consume r n;
    Some s
  end

(* The next header block, consumed: its start line and its headers, names
   lowercased and values trimmed. [None] at end of input or once the
   block overruns its cap. *)
let rec read_head r =
  let at i c = Bytes.get r.buf (r.pos + i) = c in
  let rec scan i =
    if i + 4 > available r then None
    else if at i '\r' && at (i + 1) '\n' && at (i + 2) '\r' && at (i + 3) '\n'
    then Some i
    else scan (i + 1)
  in
  match scan r.scanned with
  | Some i when i <= max_header_bytes ->
    let lines = String.split_on_char '\n' (Bytes.sub_string r.buf r.pos i) in
    consume r (i + 4);
    let field line =
      Option.map
        (fun c ->
          ( String.lowercase_ascii (String.trim (String.sub line 0 c)),
            String.trim (String.sub line (c + 1) (String.length line - c - 1))
          ))
        (String.index_opt line ':')
    in
    Some (String.trim (List.hd lines), List.filter_map field (List.tl lines))
  | Some _ -> None
  | None ->
    r.scanned <- max r.scanned (available r - 3);
    if r.scanned <= max_header_bytes && fill r then read_head r else None

let wants_keep_alive headers =
  Option.map String.lowercase_ascii (List.assoc_opt "connection" headers)
  = Some "keep-alive"

(* Decimal digits only — no sign, [0x] prefix or [_] separator; a value
   too large for an int saturates. *)
let content_length headers =
  match List.assoc_opt "content-length" headers with
  | None -> Ok None
  | Some v when v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v ->
    Ok (Some (Option.value (int_of_string_opt v) ~default:max_int))
  | Some v when String.starts_with ~prefix:"-" v ->
    Error "negative Content-Length"
  | Some _ -> Error "malformed Content-Length"

let read_request r =
  Option.bind (read_head r) (fun (line, headers) ->
      match (String.split_on_char ' ' line, content_length headers) with
      | _, Error reason -> Some (Error (400, reason))
      | _, Ok (Some n) when n > max_body_bytes ->
        Some (Error (413, Printf.sprintf "body over %d bytes" max_body_bytes))
      | meth :: target :: _, Ok n -> (
        match take r (Option.value n ~default:0) with
        | None -> Some (Error (400, "body shorter than Content-Length"))
        | Some body ->
          let path = List.hd (String.split_on_char '?' target) in
          Some (Ok { meth; path; body; keep_alive = wants_keep_alive headers }))
      | _ -> None)

let read_response r =
  match read_head r with
  | None -> Error "eof before response headers"
  | Some (line, headers) -> (
    let status =
      match String.split_on_char ' ' line with
      | _ :: code :: _ -> int_of_string_opt code
      | _ -> None
    in
    match (status, content_length headers) with
    | None, _ -> Error ("malformed status line: " ^ line)
    | _, Error reason -> Error reason
    | _, Ok None -> Error "response without Content-Length"
    | Some code, Ok (Some n) -> (
      match take r n with
      | Some body -> Ok (code, body, wants_keep_alive headers)
      | None ->
        Error
          (Printf.sprintf "short read: Content-Length %d, body %d bytes" n
             (available r))))

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* --- serving --- *)

type t = {
  listener : Unix.file_descr;
  port : int;
  acceptor : Thread.t;
  stopping : bool Atomic.t;
  live : int Atomic.t;  (* connection threads still running *)
}

let port t = t.port
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Serves requests until the client closes, idles past the read timeout,
   or sends one without [Connection: keep-alive]. *)
let handle_conn ~stopping ~live ~conn_errors route conn =
  let rd = fd_reader conn in
  let rec loop () =
    match read_request rd with
    | None -> ()
    | Some (Error (code, reason)) ->
      write_all conn
        (render ~keep_alive:false (text code ("bad request: " ^ reason ^ "\n")))
    | Some (Ok req) ->
      let keep_alive = req.keep_alive && not (Atomic.get stopping) in
      write_all conn (render ~keep_alive (route req));
      if keep_alive then loop ()
  in
  (try
     Unix.setsockopt_float conn Unix.SO_RCVTIMEO 5.0;
     loop ()
   with _ -> Metric.Counter.inc conn_errors);
  close_quietly conn;
  Atomic.decr live

let serve ~registry ~port route =
  (* A client that hangs up mid-response must cost its connection (EPIPE),
     not the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       Unix.listen fd 64
     with e ->
       close_quietly fd;
       raise e);
    fd
  with
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  | fd ->
    let conn_errors = Registry.counter registry "http.conn_errors" in
    let route req =
      let ok content_type body =
        { code = 200; content_type; headers = []; body }
      in
      match (route req, req.meth, req.path) with
      | Some r, _, _ -> r
      | None, "GET", "/metrics" ->
        ok Exporter.content_type (Exporter.render registry)
      | None, "GET", "/healthz" -> ok "text/plain" "ok\n"
      | None, "GET", "/snapshot.json" ->
        ok "application/json"
          (Json.to_string (Snapshot.metrics_json registry) ^ "\n")
      | None, _, _ -> text 404 "not found\n"
    in
    let stopping = Atomic.make false and live = Atomic.make 0 in
    let handle = handle_conn ~stopping ~live ~conn_errors route in
    (* One thread per connection: a slow query must not head-of-line-block
       a /metrics scrape, and an idle client must not block anyone. *)
    let rec accept_loop () =
      match Unix.accept fd with
      | conn, _ when Atomic.get stopping -> close_quietly conn
      | conn, _ ->
        Atomic.incr live;
        ignore (Thread.create handle conn);
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ -> () (* shut down by [stop] *)
    in
    let port =
      match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
    in
    let acceptor = Thread.create accept_loop () in
    Ok { listener = fd; port; acceptor; stopping; live }

let stop ?(drain = ignore) t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Waking a thread blocked in accept needs more than close(2): shut
       the listener down (accept then fails with EINVAL on Linux) and
       self-connect as a fallback wake (the loop sees [stopping] on the
       accepted connection and exits). Only then is joining the accept
       thread safe; the fd closes after the join. *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try
       let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect c (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port))
        with Unix.Unix_error _ -> ());
       close_quietly c
     with Unix.Unix_error _ -> ());
    Thread.join t.acceptor;
    close_quietly t.listener;
    drain ();
    (* Reads are bounded by the receive timeout, so the connection threads
       finish; the 10 s cap is belt and braces. *)
    let give_up = Unix.gettimeofday () +. 10.0 in
    while Atomic.get t.live > 0 && Unix.gettimeofday () < give_up do
      Thread.delay 0.01
    done
  end
