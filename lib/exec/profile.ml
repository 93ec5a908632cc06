open Monsoon_storage
open Monsoon_relalg
module Recorder = Monsoon_telemetry.Recorder

(* The per-plan-node execution profile scratch. One collector accompanies
   one executor; the executor's operators write scratch detail (path taken,
   representations touched, chain shape) while a node runs and [finish]
   freezes the scratch into the telemetry layer's operator record, which
   the executor keeps in the node's record. Everything except [p_ms] is a
   pure function of the execution, which profiling never perturbs — so
   profiles are byte-identical (modulo time) across worker counts and
   audited/unaudited runs.

   The disabled collector follows the Null-sink rule: every mutator is one
   load-and-branch, so the instrumented hot paths cost noise when
   profiling is off (bench-gated, like [Fault.disabled]). *)

type kind = Scan | Join | Cross | Sigma

let kind_label = function
  | Scan -> "scan"
  | Join -> "hash-join"
  | Cross -> "cross"
  | Sigma -> "sigma"

type t = {
  live : bool;
  (* scratch for the in-flight node, reset per node *)
  mutable c_kind : kind option;
  mutable c_path : string;
  mutable c_rows_in : float;
  mutable c_denom : float;  (* selectivity denominator *)
  mutable c_batches : int;
  mutable c_rev_repr : string list;
  mutable c_sel_density : float;  (* < 0 = unset *)
  mutable c_chain_max : int;
  mutable c_chain_mean : float;
}

let make live =
  { live;
    c_kind = None;
    c_path = "";
    c_rows_in = 0.0;
    c_denom = 0.0;
    c_batches = 0;
    c_rev_repr = [];
    c_sel_density = -1.0;
    c_chain_max = 0;
    c_chain_mean = 0.0 }

let disabled = make false
let create () = make true
let live t = t.live

let reset t =
  if t.live then begin
    t.c_kind <- None;
    t.c_path <- "";
    t.c_rows_in <- 0.0;
    t.c_denom <- 0.0;
    t.c_batches <- 0;
    t.c_rev_repr <- [];
    t.c_sel_density <- -1.0;
    t.c_chain_max <- 0;
    t.c_chain_mean <- 0.0
  end

let set_kind t k = if t.live then t.c_kind <- Some k
let set_path t p = if t.live then t.c_path <- p

let set_input t ~rows ~denom =
  if t.live then begin
    t.c_rows_in <- rows;
    t.c_denom <- denom
  end

let add_batches t n = if t.live then t.c_batches <- t.c_batches + n

let repr_label = function
  | Column.Ints _ -> "ints"
  | Column.Floats _ -> "floats"
  | Column.Dict _ -> "dict"
  | Column.Boxed _ -> "boxed"

let add_repr t col =
  if t.live then t.c_rev_repr <- repr_label col :: t.c_rev_repr

(* The gather rule: the label [Column.of_values] gives the values read.
   Only a Boxed column can differ from its own label: a Null-free subset
   of a Null-bearing int column labels as ints. *)
let add_repr_read t ty col ids ~n =
  if t.live then begin
    let label =
      match col with
      | Column.Boxed vs ->
        let rec agree i =
          i = n || (Column.agrees ty vs.(ids.(i)) && agree (i + 1))
        in
        if not (agree 0) then "boxed"
        else begin
          match ty with
          | Value.TInt | Value.TDate | Value.TBool -> "ints"
          | Value.TFloat -> "floats"
          | Value.TStr -> "dict"
        end
      | _ -> repr_label col
    in
    t.c_rev_repr <- label :: t.c_rev_repr
  end

let add_repr_rows t = if t.live then t.c_rev_repr <- "rows" :: t.c_rev_repr

let set_sel_density t ~kept ~of_ =
  if t.live then
    t.c_sel_density <-
      (if of_ <= 0 then 1.0 else float_of_int kept /. float_of_int of_)

(* Chain shape of a chained-bucket join index: [head]/[next] as built by
   the executor's join kernel, -1-terminated. Mean is over
   non-empty buckets. Only called on the live path. *)
let observe_chains t ~head ~next =
  if t.live then begin
    let max_chain = ref 0 and entries = ref 0 and buckets = ref 0 in
    Array.iter
      (fun h ->
        if h >= 0 then begin
          incr buckets;
          let len = ref 0 in
          let c = ref h in
          while !c >= 0 do
            incr len;
            c := next.(!c)
          done;
          entries := !entries + !len;
          if !len > !max_chain then max_chain := !len
        end)
      head;
    t.c_chain_max <- !max_chain;
    t.c_chain_mean <-
      (if !buckets = 0 then 0.0
       else float_of_int !entries /. float_of_int !buckets)
  end

let finish t ~default_kind ~rows_out ~budget ~complete ~seconds =
  if not t.live then None
  else begin
    let kind = match t.c_kind with Some k -> k | None -> default_kind in
    let selectivity =
      if t.c_denom <= 0.0 then 1.0 else rows_out /. t.c_denom
    in
    Some
      { Recorder.p_kind = kind_label kind;
        p_path = t.c_path;
        p_repr = String.concat "," (List.rev t.c_rev_repr);
        p_rows_in = t.c_rows_in;
        p_rows_out = rows_out;
        p_selectivity = selectivity;
        p_batches = t.c_batches;
        p_sel_density =
          (if t.c_sel_density < 0.0 then selectivity else t.c_sel_density);
        p_chain_max = t.c_chain_max;
        p_chain_mean = t.c_chain_mean;
        p_budget = budget;
        p_complete = complete;
        p_ms = seconds *. 1000.0 }
  end

(* A deterministic one-line fingerprint of a plan node's profile:
   everything except the wall time, with floats printed as hex so equality
   is bit-exact. The byte-identity tests (jobs-invariance,
   audited-vs-unaudited) compare concatenations of these. *)
let fingerprint q expr (p : Recorder.node_profile) =
  Printf.sprintf
    "%s kind=%s path=%s repr=%s in=%h out=%h sel=%h batches=%d dens=%h \
     chain=%d/%h budget=%h complete=%b"
    (Expr.describe q expr) p.Recorder.p_kind p.p_path p.p_repr p.p_rows_in
    p.p_rows_out p.p_selectivity p.p_batches p.p_sel_density p.p_chain_max
    p.p_chain_mean p.p_budget p.p_complete
