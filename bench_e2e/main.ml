(* The end-to-end benchmark.

     dune exec --root . -- ./bench_e2e/main.exe \
       [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

   With --workload, measures that workload in this process and prints every
   metric by name with its unit, then one JSON result line. Without it,
   runs every workload, each in a fresh child process. The exit code is
   nonzero when any completed request returned a wrong cardinality. *)

open E2e

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--out DIR]";
  exit 2

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
}

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = Some v } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with Some seed -> go { a with seed } rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 -> go { a with seconds = s } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--out" :: v :: rest -> go { a with out = Some v } rest
    | _ -> usage ()
  in
  go
    { workload = None; seed = 42; seconds = Run.default_seconds; trace = false; out = None }
    (List.tl (Array.to_list argv))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_out dir (w : Workloads.t) args (r : Run.report) =
  let module J = Monsoon_telemetry.Json in
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-seed%d-trace%d.json" w.Workloads.name args.seed
         (Bool.to_int args.trace))
  in
  let tail =
    match r.Run.tail with
    | Some (q, n) -> [ ("tail_q", J.Num q); ("tail_n", J.Num (float_of_int n)) ]
    | None -> []
  in
  let json =
    J.Obj
      ([ ("workload", J.Str w.Workloads.name);
         ("seed", J.Num (float_of_int args.seed));
         ("trace", J.Bool args.trace);
         ("unchecked", J.Num (float_of_int r.Run.unchecked));
         ("result", Metrics.result_json r.Run.result) ]
      @ tail)
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (J.to_string json ^ "\n"))

let one (w : Workloads.t) args =
  let r =
    (if args.trace then Run.traced else Run.plain) w ~seed:args.seed ~seconds:args.seconds
  in
  Workloads.remove_tmp_dir ();
  Printf.printf "%s seed=%d seconds=%g trace=%d: attempted=%d%s, unchecked=%d, wrong=%d\n"
    w.Workloads.name args.seed args.seconds (Bool.to_int args.trace)
    r.Run.result.Metrics.attempted
    (match r.Run.tail with
    | Some (q, n) -> Printf.sprintf ", tail=p%.4g (n=%d)" (100.0 *. q) n
    | None -> "")
    r.Run.unchecked r.Run.wrong;
  List.iter Metrics.print_metric r.Run.result.Metrics.metrics;
  Option.iter (fun dir -> write_out dir w args r) args.out;
  print_endline (Monsoon_telemetry.Json.to_string (Metrics.result_json r.Run.result));
  if r.Run.wrong > 0 then exit 1

let child_args args name =
  [ "--workload"; name; "--seed"; string_of_int args.seed; "--seconds";
    Printf.sprintf "%g" args.seconds; "--trace"; (if args.trace then "1" else "0") ]
  @ match args.out with Some d -> [ "--out"; d ] | None -> []

let () =
  let args = parse Sys.argv in
  Option.iter mkdir_p args.out;
  let workloads = Workloads.all () in
  match args.workload with
  | Some name -> (
    match List.find_opt (fun w -> w.Workloads.name = name) workloads with
    | Some w -> one w args
    | None ->
      Printf.eprintf "unknown workload %S; workloads: %s\n" name
        (String.concat ", " (List.map (fun w -> w.Workloads.name) workloads));
      exit 2)
  | None ->
    let failures =
      List.filter
        (fun (w : Workloads.t) ->
          flush stdout;
          let pid =
            Unix.create_process Sys.executable_name
              (Array.of_list (Sys.executable_name :: child_args args w.Workloads.name))
              Unix.stdin Unix.stdout Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> false
          | _ -> true)
        workloads
    in
    if failures <> [] then exit 1
