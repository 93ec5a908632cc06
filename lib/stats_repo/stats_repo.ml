open Monsoon_relalg
open Monsoon_stats
open Monsoon_telemetry

(* --- Fingerprints (DESIGN.md §16: the determinism contract) ---

   Keys are derived only from catalog/query structure — table names, column
   names, UDF names, query names — never from seeds, rng draws, addresses
   or wall clock, so repeated runs of the same workload write identical
   keys and a repository written with [--jobs 4] is indistinguishable from
   one written sequentially (the line *order* differs; the multiset of
   lines does not, and every reader folds in canonical order). *)

let term_fp query (tm : Term.t) =
  let arg (rid, col) =
    let r = Query.rel_by_id query rid in
    r.Query.table ^ "." ^ col
  in
  Udf.name tm.Term.udf ^ "("
  ^ String.concat "," (List.map arg tm.Term.args)
  ^ ")"

let mask_fp query mask =
  Relset.to_list mask
  |> List.map (fun rid ->
         let r = Query.rel_by_id query rid in
         r.Query.table ^ ":" ^ r.Query.alias)
  |> String.concat ","

let count_key query mask = Query.name query ^ "|" ^ mask_fp query mask

(* Distinct counts and UDF observations are measured over query-specific
   intermediates (a Σ pass runs on whatever relation state the plan has
   reached), so the same term measured under two different queries yields
   genuinely different values — pooling them across queries seeds wrong
   numbers and makes warm plans *worse*. Scoping by query name keeps every
   entry exact for the workload that produced it; cross-query sharing
   happens at the repository level (one file, many queries), not by
   aliasing measurements between unrelated predicate contexts. *)
let distinct_key query tm = Query.name query ^ "|" ^ term_fp query tm
let udf_key query tm = Query.name query ^ "|" ^ term_fp query tm

(* --- Observation log --- *)

(* One JSON object per observation: {"k":kind,"key":fingerprint,"v":value}.
   Kinds: "c" result count, "d" measured distinct count, "u" observed UDF
   selectivity (kept fraction), "uc" UDF evaluation cost (rows evaluated). *)

type agg = { n : int; sum : float; lo : float; hi : float }

type entry = {
  e_kind : string;
  e_key : string;
  e_n : int;
  e_mean : float;
  e_lo : float;
  e_hi : float;
}

type t = {
  path : string;
  baseline : (string * string, agg) Hashtbl.t;
      (* (kind, key) -> aggregate; loaded once at [open_], immutable for the
         handle's lifetime so warm-start lookups never depend on what this
         run has flushed so far (jobs-invariance). *)
  rejected : int;  (* log lines [open_] could not use *)
}

let kinds = [ "c"; "d"; "u"; "uc" ]

let observation j =
  match
    ( Option.bind (Json.member "k" j) Json.to_str,
      Option.bind (Json.member "key" j) Json.to_str,
      Option.bind (Json.member "v" j) Json.to_float )
  with
  (* No observation is negative, and [Json] already refuses non-finite
     numbers. A "u" may exceed 1: a Σ pass records its estimated distinct
     count over its rows, and the estimate can overshoot. *)
  | Some k, Some key, Some v when List.mem k kinds && v >= 0.0 -> Ok (k, key, v)
  | _ -> Error "not an observation (known kind, string key, value >= 0)"

(* The observations of the log at [path] and the number of lines rejected
   as unusable (blank, torn, malformed or out of range). A log that cannot
   be read is empty. *)
let read_lines path =
  match Jsonl.read path observation with
  | Ok (obs, rejected) -> (obs, List.length rejected)
  | Error _ -> ([], 0)

(* Canonical fold: append order varies across [--jobs] settings, so sort
   the observation multiset before summing — float addition is not
   commutative enough to skip this. *)
let aggregate obs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (k, key, v) ->
      let cur = Hashtbl.find_opt tbl (k, key) in
      let agg =
        match cur with
        | None -> { n = 1; sum = v; lo = v; hi = v }
        | Some a ->
          { n = a.n + 1;
            sum = a.sum +. v;
            lo = Float.min a.lo v;
            hi = Float.max a.hi v }
      in
      Hashtbl.replace tbl (k, key) agg)
    (List.sort compare obs);
  tbl

let open_ path =
  let obs, rejected = read_lines path in
  { path; baseline = aggregate obs; rejected }

let path t = t.path
let lines_rejected t = t.rejected

let kind_name = function
  | "c" -> "count"
  | "d" -> "distinct"
  | "u" -> "udf-sel"
  | "uc" -> "udf-cost"
  | k -> k

let entries t =
  Hashtbl.fold
    (fun (k, key) a acc ->
      { e_kind = kind_name k;
        e_key = key;
        e_n = a.n;
        e_mean = a.sum /. float_of_int a.n;
        e_lo = a.lo;
        e_hi = a.hi }
      :: acc)
    t.baseline []
  |> List.sort compare

(* --- Flushing (the driver's Query_finish hook) --- *)

let flush_query t ~query ~counts ~distincts ~udf =
  let line k key v =
    Json.to_string
      (Json.Obj [ ("k", Json.Str k); ("key", Json.Str key); ("v", Json.Num v) ])
  in
  let lines =
    List.map (fun (m, c) -> line "c" (count_key query m) c) counts
    @ List.map
        (fun (tid, d) -> line "d" (distinct_key query (Query.term query tid)) d)
        distincts
    @ List.concat_map
        (fun (tid, evals, frac) ->
          let key = udf_key query (Query.term query tid) in
          [ line "uc" key evals; line "u" key frac ])
        udf
  in
  (* One batch per query keeps a query's lines contiguous. *)
  let written = if lines = [] then 0 else Jsonl.append_lines t.path lines in
  (written, List.length lines - written)

(* --- Warm-start (DESIGN.md §16: the fallback ladder) --- *)

type warm = Known of float | Hint of Prior.t | Cold

let warm_of_agg a =
  let mean = a.sum /. float_of_int a.n in
  (* A sum past the float range has no usable mean. *)
  if not (Float.is_finite mean) then Cold
  (* Confidence gate: a tight history (every observation within 10% of the
     mean) is treated as a known value — the Σ action for the term becomes
     pointless and the MDP prunes it. A dispersed history still informs the
     prior but keeps the buy-statistics action on the table. *)
  else if a.hi -. a.lo <= 0.1 *. Float.max 1.0 mean then Known mean
  else Hint (Prior.empirical ~name:"Repository" ~mean ~lo:a.lo ~hi:a.hi)

let lookup_distinct t ~query ~term =
  match Hashtbl.find_opt t.baseline ("d", distinct_key query term) with
  | None -> Cold
  | Some a -> warm_of_agg a

let lookup_udf t ~query ~term =
  match
    ( Hashtbl.find_opt t.baseline ("uc", udf_key query term),
      Hashtbl.find_opt t.baseline ("u", udf_key query term) )
  with
  | Some c, Some s ->
    Some (c.sum /. float_of_int c.n, s.sum /. float_of_int s.n)
  | _ -> None

(* --- Snapshots, retention, diff --- *)

let snap_re = ".snap-"

let snapshot_id name =
  (* "<base>.snap-000012.json" -> Some 12 *)
  match String.rindex_opt name '-' with
  | None -> None
  | Some i ->
    let tail = String.sub name (i + 1) (String.length name - i - 1) in
    if Filename.check_suffix tail ".json" then
      int_of_string_opt (Filename.chop_suffix tail ".json")
    else None

let snapshots t =
  let dir = Filename.dirname t.path in
  let base = Filename.basename t.path in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           if
             String.length name > String.length base
             && String.sub name 0 (String.length base) = base
             && String.length name > String.length base + String.length snap_re
             && String.sub name (String.length base) (String.length snap_re)
                = snap_re
           then
             Option.map (fun id -> (id, Filename.concat dir name)) (snapshot_id name)
           else None)
    |> List.sort compare
    |> List.map snd

let entry_json e =
  Json.Obj
    [ ("kind", Json.Str e.e_kind);
      ("key", Json.Str e.e_key);
      ("n", Json.Num (float_of_int e.e_n));
      ("mean", Json.Num e.e_mean);
      ("lo", Json.Num e.e_lo);
      ("hi", Json.Num e.e_hi) ]

let snapshot t =
  (* Snapshot the *log*, not the in-memory baseline: the handle's baseline
     is frozen at [open_] while the log keeps growing; a snapshot taken
     after a run must see that run's flushes. *)
  let tbl = aggregate (fst (read_lines t.path)) in
  let es = entries { t with baseline = tbl } in
  let next =
    1
    + List.fold_left
        (fun acc p ->
          match snapshot_id (Filename.basename p) with
          | Some id -> max acc id
          | None -> acc)
        0 (snapshots t)
  in
  let path = Printf.sprintf "%s%s%06d.json" t.path snap_re next in
  let line =
    Json.to_string (Json.Obj [ ("entries", Json.Arr (List.map entry_json es)) ])
  in
  if Jsonl.append_lines path [ line ] = 1 then Ok path
  else Error (path ^ ": cannot write")

let gc t ~keep =
  let snaps = snapshots t in
  let excess = List.length snaps - max 0 keep in
  if excess <= 0 then 0
  else begin
    let victims = List.filteri (fun i _ -> i < excess) snaps in
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) victims;
    List.length victims
  end

(* A snapshot is a one-line JSONL file. *)
let load_snapshot path =
  let entry e =
    match
      ( Option.bind (Json.member "kind" e) Json.to_str,
        Option.bind (Json.member "key" e) Json.to_str,
        Option.bind (Json.member "n" e) Json.to_int,
        Option.bind (Json.member "mean" e) Json.to_float,
        Option.bind (Json.member "lo" e) Json.to_float,
        Option.bind (Json.member "hi" e) Json.to_float )
    with
    | Some kind, Some key, Some n, Some mean, Some lo, Some hi ->
      Some
        { e_kind = kind; e_key = key; e_n = n; e_mean = mean; e_lo = lo;
          e_hi = hi }
    | _ -> None
  in
  let decode j =
    match Json.member "entries" j with
    | Some (Json.Arr es) -> Ok (List.filter_map entry es)
    | _ -> Error "no \"entries\" array"
  in
  match Jsonl.read path decode with
  | Error e -> Error e
  | Ok ([ es ], []) -> Ok es
  | Ok (_, { Jsonl.reason; _ } :: _) -> Error (path ^ ": " ^ reason)
  | Ok _ -> Error (path ^ ": not one snapshot line")

(* Deterministic snapshot diff, the Qlog diff_report idiom: one row per
   (kind, key) in canonical order, +1-smoothed drift ratios, and a verdict
   column; no timestamps or wall-clock numbers, so the same two snapshots
   render byte-identical reports forever. *)
let diff ~old_ ~new_ =
  match (load_snapshot old_, load_snapshot new_) with
  | Error e, _ | _, Error e -> Error e
  | Ok olds, Ok news ->
    let by_key es =
      List.map (fun e -> ((e.e_kind, e.e_key), e)) es |> List.sort compare
    in
    let o = by_key olds and n = by_key news in
    let keys =
      List.sort_uniq compare (List.map fst o @ List.map fst n)
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "Repository diff: %s -> %s\n"
         (Filename.basename old_) (Filename.basename new_));
    let new_n = ref 0 and changed = ref 0 and lost = ref 0 and same = ref 0 in
    List.iter
      (fun k ->
        let kind, key = k in
        match (List.assoc_opt k o, List.assoc_opt k n) with
        | None, Some e ->
          incr new_n;
          Buffer.add_string buf
            (Printf.sprintf "  %-8s %-48s new (n=%d mean=%.6g)\n" kind key
               e.e_n e.e_mean)
        | Some e, None ->
          incr lost;
          Buffer.add_string buf
            (Printf.sprintf "  %-8s %-48s LOST (was n=%d mean=%.6g)\n" kind key
               e.e_n e.e_mean)
        | Some a, Some b ->
          if a.e_n = b.e_n && a.e_mean = b.e_mean && a.e_lo = b.e_lo
             && a.e_hi = b.e_hi
          then incr same
          else begin
            incr changed;
            let drift = (b.e_mean +. 1.0) /. (a.e_mean +. 1.0) in
            Buffer.add_string buf
              (Printf.sprintf
                 "  %-8s %-48s n %d->%d mean %.6g->%.6g drift x%.3f\n" kind key
                 a.e_n b.e_n a.e_mean b.e_mean drift)
          end
        | None, None -> assert false)
      keys;
    Buffer.add_string buf
      (Printf.sprintf "%d new, %d changed, %d lost, %d unchanged\n" !new_n
         !changed !lost !same);
    Ok (Buffer.contents buf)

let show t =
  let obs, skipped = read_lines t.path in
  let es = entries { t with baseline = aggregate obs } in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Statistics repository %s: %d keys\n" t.path
       (List.length es));
  if skipped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  skipped %d unusable line%s\n" skipped
         (if skipped = 1 then "" else "s"));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %-48s n=%-4d mean=%-12.6g lo=%-12.6g hi=%.6g\n"
           e.e_kind e.e_key e.e_n e.e_mean e.e_lo e.e_hi))
    es;
  Buffer.contents buf
