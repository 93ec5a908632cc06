(** Prometheus / OpenMetrics text exposition over a {!Registry}.

    [render reg] produces the scrape body the [/metrics] endpoint
    serves: one [# HELP] / [# TYPE] header per (name, kind)
    group, one sample line per labeled instrument. Counters become
    [monsoon_<name>_total], gauges [monsoon_<name>]; histograms emit
    cumulative [_bucket{le="..."}] lines (the underflow bucket as
    [le="0"], a closing [le="+Inf"]), [_sum], [_count], and a companion
    [<name>_quantile] gauge family with p50/p95/p99 (the log-bucketed
    histogram's bucket upper bounds, accurate to a factor of the base).

    Output order follows {!Registry.to_list} — sorted by raw name, then
    labels — so the exposition is byte-stable for a given registry
    state and safe to golden-test. *)

val content_type : string
(** The HTTP [Content-Type] for {!render} output
    (text exposition format 0.0.4). *)

val metric_name : ?counter:bool -> string -> string
(** Sanitized exposition name: characters outside [[a-zA-Z0-9_]] become
    ['_'], a ["monsoon_"] prefix is ensured, and [~counter:true] appends
    ["_total"] (unless already present). E.g.
    [metric_name ~counter:true "driver.steps" =
    "monsoon_driver_steps_total"]. *)

val escape_label : string -> string
(** Label-value escaping: backslash, double quote, newline. *)

val render : Registry.t -> string
