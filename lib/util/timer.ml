(* Monotonic time base. OCaml's Unix library exposes no clock_gettime, so
   the CLOCK_MONOTONIC read comes from bechamel's no-alloc stub; the epoch
   is arbitrary (boot time on Linux) but never jumps backwards, so span
   durations and component breakdowns cannot go negative on wall-clock
   adjustments. Unix.gettimeofday remains the fallback if the stub ever
   reports an unusable clock. *)

let monotonic_ok =
  (* Paranoia: a broken stub would return 0 forever. *)
  Monotonic_clock.now () > 0L

let now () =
  if monotonic_ok then Int64.to_float (Monotonic_clock.now ()) *. 1e-9
  else Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)
