(** Rendering a registry / trace to reports.

    The ASCII layout is the repo's standard table format (title line,
    two-space indent, dash separator) — {!Monsoon_harness.Report.table}
    delegates to {!table} so every report in the repo stays visually
    identical. *)

val pad : int -> string -> string
val table : title:string -> header:string list -> string list list -> string

(** {1 Metric snapshots} *)

val metrics_rows : Registry.t -> string list list
(** One row per instrument: name, labels, kind, value summary. Histograms
    summarize as count/mean/p50/p99/max. *)

val metrics_table : ?title:string -> Registry.t -> string
val metrics_json : Registry.t -> Json.t

(** {1 Component breakdown from spans} *)

type component = {
  comp_name : string;  (** span name *)
  comp_spans : int;
  comp_seconds : float;  (** summed span durations *)
  comp_objects : float;  (** summed ["objects"] attributes *)
}

val breakdown : Span.t list -> component list
(** Groups completed spans by name (descending total duration). The
    Table-8-style MCTS / Σ / execution split falls out of the span names
    the instrumented stack emits: ["mcts.plan"], ["exec.sigma"],
    ["exec.execute"], ["driver.run"], ["query"]. *)

val component : string -> component list -> component option

val breakdown_table : ?title:string -> Span.t list -> string
