(* Live monitoring: a sampler thread snapshotting the registry + GC into
   a bounded ring, and an lt_profile-style differential report over two
   samples.

   The sampler is a systhread, not a domain, on purpose: an
   extra domain — even one asleep in [select] — turns every minor GC of
   the workload into a cross-domain stop-the-world barrier, which costs
   tens of percent on allocation-heavy single-domain runs (measured ~90%
   on the bench suite under OCaml 5.1). A thread sleeping in [select]
   releases the runtime lock and adds no GC coordination; the ~3 µs
   ticks steal negligible mutator time. The sampler waits on a pipe with
   a select timeout, so stop wakes it immediately. *)

type probe_kind = Cumulative | Level

type probe = { p_key : string; p_kind : probe_kind; p_value : float }

type sample = {
  s_time : float;
  s_minor_words : float;
  s_promoted_words : float;
  s_major_words : float;
  s_minor_collections : int;
  s_major_collections : int;
  s_compactions : int;
  s_heap_words : int;
  s_probes : probe list;
}

let probe_key (k : Registry.key) suffix =
  k.Registry.name ^ suffix
  ^
  match k.Registry.labels with
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat "," (List.map (fun (l, v) -> l ^ "=" ^ v) labels)
    ^ "}"

let sample_now reg =
  let gc = Gc.quick_stat () in
  let probes =
    List.concat_map
      (fun ((k : Registry.key), inst) ->
        match inst with
        | Registry.Counter c ->
          [ { p_key = probe_key k "";
              p_kind = Cumulative;
              p_value = Metric.Counter.value c } ]
        | Registry.Gauge g ->
          [ { p_key = probe_key k "";
              p_kind = Level;
              p_value = Metric.Gauge.value g } ]
        | Registry.Histogram h ->
          [ { p_key = probe_key k ".count";
              p_kind = Cumulative;
              p_value = float_of_int (Metric.Histogram.count h) };
            { p_key = probe_key k ".sum";
              p_kind = Cumulative;
              p_value = Metric.Histogram.sum h } ])
      (Registry.to_list reg)
  in
  { s_time = Monsoon_util.Timer.now ();
    s_minor_words = gc.Gc.minor_words;
    s_promoted_words = gc.Gc.promoted_words;
    s_major_words = gc.Gc.major_words;
    s_minor_collections = gc.Gc.minor_collections;
    s_major_collections = gc.Gc.major_collections;
    s_compactions = gc.Gc.compactions;
    s_heap_words = gc.Gc.heap_words;
    s_probes = probes }

(* --- differential report (lt_profile-style: two snapshots -> rates) --- *)

let fnum v = Printf.sprintf "%.6g" v

let top_movers a b =
  let a_probes = List.map (fun p -> (p.p_key, p)) a.s_probes in
  List.filter_map
    (fun pb ->
      let from =
        match List.assoc_opt pb.p_key a_probes with
        | Some pa -> pa.p_value
        | None -> 0.0 (* appeared inside the window *)
      in
      let delta = pb.p_value -. from in
      if delta = 0.0 then None else Some (pb, from, delta))
    b.s_probes
  |> List.sort (fun (_, _, d1) (_, _, d2) ->
         compare (Float.abs d2) (Float.abs d1))

let diff_report ?(top = 20) a b =
  let dt = b.s_time -. a.s_time in
  let rate delta =
    if dt > 0.0 then fnum (delta /. dt) else "-"
  in
  let metric_rows =
    top_movers a b
    |> List.filteri (fun i _ -> i < top)
    |> List.map (fun (pb, from, delta) ->
           [ pb.p_key;
             (match pb.p_kind with
             | Cumulative -> "cumulative"
             | Level -> "level");
             fnum from; fnum pb.p_value; fnum delta;
             (match pb.p_kind with Cumulative -> rate delta | Level -> "-") ])
  in
  let gc_row name from_v to_v ~cumulative =
    let delta = to_v -. from_v in
    [ name; fnum from_v; fnum to_v; fnum delta;
      (if cumulative then rate delta else "-") ]
  in
  let fi = float_of_int in
  let gc_rows =
    [ gc_row "minor words" a.s_minor_words b.s_minor_words ~cumulative:true;
      gc_row "promoted words" a.s_promoted_words b.s_promoted_words
        ~cumulative:true;
      gc_row "major words" a.s_major_words b.s_major_words ~cumulative:true;
      gc_row "minor collections" (fi a.s_minor_collections)
        (fi b.s_minor_collections) ~cumulative:true;
      gc_row "major collections" (fi a.s_major_collections)
        (fi b.s_major_collections) ~cumulative:true;
      gc_row "compactions" (fi a.s_compactions) (fi b.s_compactions)
        ~cumulative:true;
      gc_row "heap words" (fi a.s_heap_words) (fi b.s_heap_words)
        ~cumulative:false ]
  in
  let header = Printf.sprintf "Differential runtime report (%.2fs window)" dt in
  let metrics_table =
    if metric_rows = [] then
      header ^ "\n  (no metric movement in the window)\n"
    else
      Snapshot.table
        ~title:(header ^ " — top movers")
        ~header:[ "Metric"; "Kind"; "From"; "To"; "Delta"; "Rate/s" ]
        metric_rows
  in
  let gc_table =
    Snapshot.table ~title:"GC (sampling domain minor/major; shared heap)"
      ~header:[ "Stat"; "From"; "To"; "Delta"; "Rate/s" ]
      gc_rows
  in
  metrics_table ^ "\n" ^ gc_table

let tick_line a b =
  let dt = b.s_time -. a.s_time in
  let movers =
    top_movers a b
    |> List.filter (fun (pb, _, _) -> pb.p_kind = Cumulative)
    |> List.filteri (fun i _ -> i < 3)
    |> List.map (fun (pb, _, delta) ->
           Printf.sprintf "%s %s/s" pb.p_key
             (fnum (if dt > 0.0 then delta /. dt else 0.0)))
  in
  Printf.sprintf "[monitor] +%.1fs  %s" dt
    (match movers with [] -> "idle" | ms -> String.concat "  " ms)

(* --- pre-registration ---

   Interning the instrumented stack's well-known metrics up front means
   /metrics and /snapshot.json are fully populated (at zero) from the
   very first scrape, before any query has run — CI smoke tests and
   dashboards need not race the first driver run. The list mirrors the
   names used in driver.ml / mcts.ml / executor.ml / runner.ml and the
   serving layer (lib/server: admission.ml / slo.ml / http.ml). *)

let preregister reg =
  List.iter
    (fun n -> ignore (Registry.counter reg n))
    [ "driver.steps"; "driver.replans"; "driver.executes";
      "driver.mcts_seconds"; "driver.degraded"; "mcts.plans";
      "mcts.iterations"; "mcts.expansions"; "exec.tuples_scanned";
      "exec.tuples_built"; "exec.tuples_probed"; "exec.tuples_emitted";
      "exec.sigma_objects"; "exec.budget_spent"; "exec.fused_ops";
      "exec.scalar_fallbacks"; "exec.id_chunks_fresh"; "exec.id_words_carved";
      "fault.injected";
      "mcts.transpositions"; "runner.cells"; "runner.retries";
      "runner.quarantined"; "monitor.ticks"; "server.requests"; "server.ok";
      "server.degraded"; "server.rejected"; "server.timeout"; "server.error";
      "http.conn_errors"; "repo.lookups"; "repo.hits"; "repo.warm_starts";
      "repo.flushes"; "repo.entries_written"; "repo.lines_failed";
      "qlog.lines_failed" ];
  List.iter
    (fun n -> ignore (Registry.gauge reg n))
    [ "runner.cells_expected"; "pool.queued"; "pool.in_flight";
      "pool.completed"; "pool.respawned"; "gc.heap_words"; "gc.minor_words";
      "gc.major_words"; "gc.minor_collections"; "gc.major_collections";
      "server.queue_depth"; "server.in_flight" ];
  List.iter
    (fun n -> ignore (Registry.histogram reg n))
    [ "driver.q_error"; "driver.replans_per_query"; "mcts.tree_depth";
      "exec.node_ms"; "server.latency"; "server.queue_wait" ]

(* --- the monitor itself --- *)

type t = {
  reg : Registry.t;
  interval : float;
  ring : int;
  lock : Mutex.t;
  samples : sample Queue.t;  (* oldest first, at most [ring] *)
  stopped : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  on_tick : (sample -> unit) option;
  mutable sampler : Thread.t option;
}

let export_gc t (s : sample) =
  let set name v = Metric.Gauge.set (Registry.gauge t.reg name) v in
  set "gc.heap_words" (float_of_int s.s_heap_words);
  set "gc.minor_words" s.s_minor_words;
  set "gc.major_words" s.s_major_words;
  set "gc.minor_collections" (float_of_int s.s_minor_collections);
  set "gc.major_collections" (float_of_int s.s_major_collections)

let tick t =
  let s = sample_now t.reg in
  Metric.Counter.inc (Registry.counter t.reg "monitor.ticks");
  export_gc t s;
  Mutex.lock t.lock;
  Queue.push s t.samples;
  if Queue.length t.samples > t.ring then ignore (Queue.pop t.samples);
  Mutex.unlock t.lock;
  match t.on_tick with Some f -> f s | None -> ()

(* Periodic ticks only: the initial sample is taken synchronously by
   [create] and the final one by [stop], so even a run shorter than one
   interval ends with a (first, last) pair to diff. *)
let rec sampler_loop t =
  if not (Atomic.get t.stopped) then
    match Unix.select [ t.wake_r ] [] [] t.interval with
    | [], _, _ ->
      if not (Atomic.get t.stopped) then begin
        tick t;
        sampler_loop t
      end
    | _ -> () (* woken for stop: [stop] takes the final sample *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> sampler_loop t

let create ?(interval = 1.0) ?(ring = 600) ?on_tick reg =
  if interval <= 0.0 then invalid_arg "Monitor.create: interval must be > 0";
  if ring < 2 then invalid_arg "Monitor.create: ring must hold >= 2 samples";
  let wake_r, wake_w = Unix.pipe () in
  let t =
    { reg;
      interval;
      ring;
      lock = Mutex.create ();
      samples = Queue.create ();
      stopped = Atomic.make false;
      wake_r;
      wake_w;
      on_tick;
      sampler = None }
  in
  tick t;
  t.sampler <- Some (Thread.create sampler_loop t);
  t

let interval t = t.interval

let samples t =
  Mutex.lock t.lock;
  let s = List.of_seq (Queue.to_seq t.samples) in
  Mutex.unlock t.lock;
  s

let first t = match samples t with [] -> None | s :: _ -> Some s

let latest t =
  match List.rev (samples t) with [] -> None | s :: _ -> Some s

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (* Wake the sampler for its final tick, then join it. *)
    (try ignore (Unix.write_substring t.wake_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    (match t.sampler with Some d -> Thread.join d | None -> ());
    t.sampler <- None;
    (* The final sample, taken here so the ring always covers the whole
       run even when it was shorter than one interval. *)
    tick t;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.wake_r; t.wake_w ]
  end
