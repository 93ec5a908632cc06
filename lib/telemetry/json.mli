(** A minimal JSON value type with a printer and a parser.

    Just enough for the telemetry subsystem's JSONL traces and metric
    snapshots — no external dependency. Numbers are floats (as in JSON
    itself); [to_string] prints them with 17 significant digits so a
    write → parse round trip is exact. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses one JSON value (surrounding whitespace allowed); [Error msg]
    carries the character position of the failure. A number that
    overflows to ±infinity (e.g. [1e999]) is an error. Never raises. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else. *)

val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
