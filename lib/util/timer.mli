(** Wall-clock timing helpers for the harness and the Monsoon driver's
    component breakdown (paper Table 8). *)

val now : unit -> float
(** Monotonic seconds (CLOCK_MONOTONIC; arbitrary epoch). Differences are
    always ≥ 0 regardless of wall-clock adjustments. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result together with elapsed seconds. *)
