(** The JSONL line logs: one JSON value per line, read back under one
    bad-line policy and written under one process-wide lock.

    Two logs use this format: the statistics repository's observation log
    and the {!Qlog} audit log; the {!Span} [Jsonl] sink writes traces in
    it too. A crash mid-append leaves a torn last line, and a log may be
    edited by hand, so the reader never trusts a line: any line that is
    blank, torn, malformed JSON or refused by the caller's decoder is
    rejected with its line number and reason, and reading goes on. What
    a caller does with the rejections — skip and count them, or refuse
    the file — is its own policy; nothing is dropped unreported. *)

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

val with_lock : (unit -> 'a) -> 'a
(** Runs [f] under the process-wide line lock, released however [f]
    returns. Every writer of a line log holds it while it writes, so lines
    from several domains never interleave or tear. *)

val append_lines : string -> string list -> unit
(** [append_lines path lines] opens [path] for append (creating it),
    writes each line followed by a newline under {!with_lock}, and closes
    it. Write errors are swallowed: callers log for later runs, never for
    this one's correctness. *)
