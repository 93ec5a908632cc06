(** The JSONL line logs: one JSON value per line, read back under one
    bad-line policy and written under one write policy.

    The statistics repository's observation log, the {!Qlog} audit log
    and the {!Span} [Jsonl] trace sink use this format. A crash mid-append
    leaves a torn last line, and a log may be edited by hand, so the
    reader never trusts a line: any line that is blank, torn, malformed
    JSON or refused by the caller's decoder is rejected with its line
    number and reason, and reading goes on. What a caller does with the
    rejections — skip and count them, or refuse the file — is its own
    policy; nothing is dropped unreported.

    One write policy mirrors it: a {!writer} never buffers, never raises
    and drops nothing unreported. Every line {!append} reports written is
    in the OS when it returns, and every other line is counted on
    {!failed}. *)

type rejected = {
  line : int;  (** 1-based line number in the file *)
  reason : string;
}

val read :
  string ->
  (Json.t -> ('a, string) result) ->
  ('a list * rejected list, string) result
(** [read path decode] parses every line of [path] with
    {!Json.of_string}, then [decode]. Returns the decoded values and the
    rejected lines, each in file order. [Error] only when the file cannot
    be opened or read. Never raises unless [decode] does. *)

type writer

val open_writer :
  ?max_bytes:int -> ?truncate:bool -> string -> (writer, string) result
(** Opens [path] for appending, creating it if absent; [truncate]
    (default [false]) empties an existing regular file. With [max_bytes],
    an append that would push a non-empty file past the bound first
    renames it to [path ^ ".1"] (replacing any previous rotation) and
    starts a fresh file. [Error] names the path and the reason. *)

val append : writer -> string list -> int
(** Writes each line (which holds no newline) and a newline, the batch
    whole under one process-wide lock with one [write(2)] loop on an
    [O_APPEND] descriptor. Returns how many lines reached the OS; every
    other line — after {!close}, all of them — is added to {!failed}.
    Never raises. *)

val failed : writer -> int
(** Lines appended to this writer that did not reach the OS. *)

val close : writer -> unit
(** Closes the file. Idempotent. *)

val append_lines : string -> string list -> int
(** Opens [path], appends [lines] as one batch and closes it. Returns the
    lines written: 0 when [path] cannot be opened. *)
