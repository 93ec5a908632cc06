let uniform rng ~lo ~hi = lo +. Rng.float rng (hi -. lo)

let normal rng ~mean ~stddev =
  (* Box–Muller; one value per call keeps the sampler stateless. *)
  let u1 = max (Rng.unit_float rng) 1e-300 in
  let u2 = Rng.unit_float rng in
  let r = sqrt (-2.0 *. log u1) in
  mean +. (stddev *. r *. cos (2.0 *. Float.pi *. u2))

let rec gamma rng ~shape ~scale =
  assert (shape > 0.0 && scale > 0.0);
  if shape < 1.0 then
    (* Boost: Gamma(a) = Gamma(a+1) * U^(1/a). *)
    let g = gamma rng ~shape:(shape +. 1.0) ~scale:1.0 in
    let u = max (Rng.unit_float rng) 1e-300 in
    scale *. g *. (u ** (1.0 /. shape))
  else begin
    (* Marsaglia–Tsang squeeze method. *)
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec loop () =
      let x = normal rng ~mean:0.0 ~stddev:1.0 in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then loop ()
      else
        let v = v *. v *. v in
        let u = max (Rng.unit_float rng) 1e-300 in
        if u < 1.0 -. (0.0331 *. x *. x *. x *. x) then d *. v
        else if log u < (0.5 *. x *. x) +. (d *. (1.0 -. v +. log v)) then
          d *. v
        else loop ()
    in
    scale *. loop ()
  end

let beta rng ~alpha ~beta =
  let x = gamma rng ~shape:alpha ~scale:1.0 in
  let y = gamma rng ~shape:beta ~scale:1.0 in
  let v = x /. (x +. y) in
  (* Keep strictly inside (0,1) so downstream ceilings stay in range. *)
  Float.min (Float.max v 1e-12) (1.0 -. 1e-12)

(* Lanczos approximation of log-gamma, good to ~1e-13 for x > 0. *)
let lanczos_coef =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection formula. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let g = 7.0 in
    let a = ref lanczos_coef.(0) in
    for i = 1 to 8 do
      a := !a +. (lanczos_coef.(i) /. (x +. float_of_int i -. 1.0))
    done;
    let t = x +. g -. 0.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. ((x -. 0.5) *. log t) -. t +. log !a
  end

let beta_pdf ~alpha ~beta x =
  if x <= 0.0 || x >= 1.0 then 0.0
  else
    let log_b = log_gamma alpha +. log_gamma beta -. log_gamma (alpha +. beta) in
    exp (((alpha -. 1.0) *. log x) +. ((beta -. 1.0) *. log (1.0 -. x)) -. log_b)

let exponential rng ~rate =
  let u = max (Rng.unit_float rng) 1e-300 in
  -.log u /. rate

type zipf = { cdf : float array }

let zipf_make ~n ~z =
  assert (n > 0);
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. (float_of_int (i + 1) ** z));
    cdf.(i) <- !total
  done;
  let t = !total in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. t
  done;
  { cdf }

let zipf_draw rng { cdf } =
  let u = Rng.unit_float rng in
  (* Binary search for the first index with cdf >= u. *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo + 1

let categorical rng weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  assert (total > 0.0);
  let u = Rng.float rng total in
  let rec go i acc =
    if i = Array.length weights - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else go (i + 1) acc
  in
  go 0 0.0

let mean a =
  assert (Array.length a > 0);
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let percentile a p =
  assert (Array.length a > 0 && p >= 0.0 && p <= 100.0);
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let median a =
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

let stddev a =
  let m = mean a in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a
    /. float_of_int (Array.length a)
  in
  sqrt var
