(* Compare two sets of end-to-end result files (written by
   [main.exe --out DIR]):

     dune exec --root . -- ./bench_e2e/compare.exe DIR_A DIR_B

   A is the baseline, B the change. Runs pair up by seed. Prints each
   side's median and quartiles, the pairs B won and a verdict per
   (workload, metric); exits 1 when any verdict is "worse". *)

open E2e

let () =
  match Sys.argv with
  | [| _; dir_a; dir_b |] ->
    let rows = Verdict.compare_runs (Verdict.load_dir dir_a) (Verdict.load_dir dir_b) in
    print_string (Verdict.render rows);
    if List.exists (fun r -> r.Verdict.verdict = Verdict.Worse) rows then exit 1
  | _ ->
    prerr_endline "usage: compare.exe DIR_A DIR_B";
    exit 2
