(** Live monitoring: a sampler plus differential reports.

    A monitor owns one sampler thread that every [interval] seconds
    snapshots the registry (every counter, gauge, and histogram
    count/sum) together with [Gc.quick_stat] into a bounded ring. A
    thread, not a domain: an extra domain — even one asleep in [select] —
    drags every minor GC of the workload into a cross-domain
    stop-the-world barrier (tens of percent of wall clock on
    allocation-heavy runs under OCaml 5.1), while a sleeping thread
    releases the runtime lock and costs nothing.

    Two samples diff into an lt_profile-style report ({!diff_report}):
    per-metric deltas and rates per second over the window, top movers
    first, plus a GC section. The CLI surfaces this as
    [monsoon profile --watch]; [--serve PORT] pairs the sampler with
    [Monsoon_server.Http.serve], which exposes the same registry as
    [/metrics], [/healthz] and [/snapshot.json].

    GC numbers come from [Gc.quick_stat] on the domain hosting the
    sampling thread (the creator's domain): major heap words/collections
    are process-wide, minor words/collections are that domain's own —
    documented, not hidden. *)

(** {1 Samples} *)

type probe_kind =
  | Cumulative  (** monotone: counters, histogram count/sum — has a rate *)
  | Level  (** instantaneous: gauges — diffed, never rated *)

type probe = { p_key : string; p_kind : probe_kind; p_value : float }

type sample = {
  s_time : float;  (** {!Monsoon_util.Timer.now} at capture *)
  s_minor_words : float;
  s_promoted_words : float;
  s_major_words : float;
  s_minor_collections : int;
  s_major_collections : int;
  s_compactions : int;
  s_heap_words : int;
  s_probes : probe list;  (** registry state, {!Registry.to_list} order *)
}

val sample_now : Registry.t -> sample
(** One synchronous snapshot (usable without a monitor). Histograms
    yield two probes, [<key>.count] and [<key>.sum]. *)

val diff_report : ?top:int -> sample -> sample -> string
(** [diff_report a b] renders the movement between two samples ([a]
    taken before [b]) as ASCII tables: the [top] (default 20) metrics
    by absolute delta with from/to/delta and — for cumulative probes —
    rate per second, followed by the GC deltas. *)

val tick_line : sample -> sample -> string
(** One-line summary of the window between two consecutive samples (the
    top three cumulative rates), for [--watch] streaming. *)

val preregister : Registry.t -> unit
(** Interns the instrumented stack's well-known metrics (driver, MCTS,
    executor, runner, pool, server, HTTP, GC) so [/metrics] is fully
    populated — at zero — from the first scrape, before any query has
    run. *)

(** {1 The monitor} *)

type t

val create :
  ?interval:float ->
  ?ring:int ->
  ?on_tick:(sample -> unit) ->
  Registry.t ->
  t
(** Takes the first sample synchronously, then starts the sampler
    thread ticking every [interval] seconds (default 1.0, must be
    positive). The ring keeps the last [ring] samples (default 600, at
    least 2). Per tick, [on_tick] runs on the sampler thread, so it must
    be thread-safe. Raises [Invalid_argument] on a non-positive
    interval or a ring smaller than 2. *)

val stop : t -> unit
(** Joins the sampler and takes one final synchronous sample (so the
    ring's last sample covers the full run even for runs shorter than
    one interval). Idempotent. *)

val interval : t -> float

val samples : t -> sample list
(** Ring contents, oldest first. *)

val first : t -> sample option

val latest : t -> sample option
