(** HTTP/1.1 framing for the query server, the live-metrics endpoint and
    the load client, over stdlib [Unix]. Messages are
    Content-Length-delimited; a connection is reused only when the client
    sends [Connection: keep-alive]. *)

open Monsoon_telemetry

type request = {
  meth : string;
  path : string;  (** the target without its [?query] part *)
  body : string;
  keep_alive : bool;
}

type response = {
  code : int;
  content_type : string;
  headers : (string * string) list;  (** rendered after Content-Length *)
  body : string;
}

val text : int -> string -> response
(** A [text/plain] response without extra headers. *)

val render_request : host:string -> request -> string

type reader
(** One per connection; bytes read past the current message stay for the
    next one. Header blocks are capped at 8 KiB, request bodies at 64 KiB. *)

val reader : (bytes -> int -> int -> int) -> reader
(** [reader read]: [read buf off len] stores up to [len] bytes at [off]
    and returns how many, [0] at end of input. *)

val fd_reader : Unix.file_descr -> reader
(** [EINTR] is retried and a receive timeout reads as end of input; other
    errors raise [Unix.Unix_error]. *)

val read_request : reader -> (request, int * string) result option
(** [None] when the input ends before a complete header block or the
    block overruns its cap; [Error (code, reason)] for a request to refuse
    — a malformed or negative Content-Length or a short body (400), a body
    over the cap (413, left unread). After an [Error] the connection must
    close. *)

val read_response : reader -> (int * string * bool, string) result
(** [(status, body, keep_alive)]. A response without a Content-Length,
    or with a body shorter than it, is an error. *)

val write_all : Unix.file_descr -> string -> unit

type t

val serve :
  registry:Registry.t -> port:int -> (request -> response option) ->
  (t, string) result
(** Binds [127.0.0.1:port] ([0] = ephemeral) and serves each connection
    on its own thread with a 5 s read timeout. A request the handler
    declines gets the telemetry routes over [registry] — [GET /metrics],
    [/healthz], [/snapshot.json] — or a 404. Connections that end on an
    exception count in [registry]'s [http.conn_errors]. Ignores
    [SIGPIPE], so a client hanging up costs only its connection. *)

val port : t -> int

val stop : ?drain:(unit -> unit) -> t -> unit
(** Shuts the listener (connections are refused once [stop] returns),
    runs [drain], then waits up to 10 s for connection threads. Responses
    written after [stop] began close their connection. Idempotent. *)
