(** Decimal text written straight into a [Buffer], for the planner's state
    keys: the same bytes as [string_of_int] and [Printf.sprintf "%.4g"],
    without going through C [printf] for the common cases. *)

val add_int : Buffer.t -> int -> unit
(** Appends [string_of_int i]. *)

val add_g4 : Buffer.t -> float -> unit
(** Appends [Printf.sprintf "%.4g" x]. A positive finite [x] that an exact
    power of ten (10{^k}, [|k| <= 22]) scales into \[1000, 10000) is
    rounded in floating point when the scaled value's fraction is more
    than 1e-9 away from one half; the scaling's rounding error is below
    1e-12 there, so the rounded digits are the exact decimal value's. Every
    other value (near-ties, zeros, negative, non-finite or out of range)
    is formatted by the C primitive [Printf] itself uses. *)
