(** Samplers for the distributions used by the Monsoon priors and the
    workload generators. All samplers take an explicit {!Rng.t}. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** Uniform on [lo, hi). *)

val normal : Rng.t -> mean:float -> stddev:float -> float
(** Gaussian via Box–Muller. *)

val gamma : Rng.t -> shape:float -> scale:float -> float
(** Marsaglia–Tsang for [shape >= 1], boosted for [shape < 1].
    Requires [shape > 0] and [scale > 0]. *)

val beta : Rng.t -> alpha:float -> beta:float -> float
(** Beta(alpha, beta) via two gamma draws. Result in (0, 1). *)

val beta_pdf : alpha:float -> beta:float -> float -> float
(** Density of Beta(alpha, beta) at a point of (0, 1); used to render the
    prior shapes of the paper's Figure 2. *)

val exponential : Rng.t -> rate:float -> float

type zipf
(** Precomputed Zipf(z) distribution over \{1, ..., n\}. A skew of [z = 0]
    degenerates to uniform. *)

val zipf_make : n:int -> z:float -> zipf
val zipf_draw : Rng.t -> zipf -> int
(** Draws a rank in [1, n]; rank 1 is the most frequent. *)

val categorical : Rng.t -> float array -> int
(** [categorical rng weights] draws an index proportionally to
    non-negative [weights]. *)

val mean : float array -> float
val median : float array -> float
(** Median of a non-empty array (the array is not modified). *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [0, 100]; nearest-rank. *)

val stddev : float array -> float
