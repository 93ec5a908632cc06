open Monsoon_util

(* [hist.(r)] counts the registers holding rank [r] (ranks run 0 to
   64 - p + 1). Every register update moves one register between two
   classes, so [count] sums at most 64 - p + 2 classes instead of reading
   2^p registers. *)
type t = { p : int; regs : Bytes.t; hist : int array }

let create ?(p = 12) () =
  assert (p >= 4 && p <= 18);
  let m = 1 lsl p in
  let hist = Array.make (64 - p + 2) 0 in
  hist.(0) <- m;
  { p; regs = Bytes.make m '\000'; hist }

(* A sketch whose registers are all 0 is already clear: reusing one
   sketch across the empty Σ terms of an empty intermediate costs no
   fill. *)
let clear t =
  let m = Bytes.length t.regs in
  if t.hist.(0) < m then begin
    Bytes.fill t.regs 0 m '\000';
    Array.fill t.hist 0 (Array.length t.hist) 0;
    t.hist.(0) <- m
  end

(* Raises register [idx] to [rank] if it is lower. *)
let[@inline] raise_to t idx rank =
  let cur = Char.code (Bytes.get t.regs idx) in
  if rank > cur then begin
    Bytes.set t.regs idx (Char.chr rank);
    t.hist.(cur) <- t.hist.(cur) - 1;
    t.hist.(rank) <- t.hist.(rank) + 1
  end

let add_hash t h =
  (* Native-int arithmetic on the two pieces of the hash: the low [p] bits
     survive [Int64.to_int] truncation untouched (p <= 18), and the
     logically-shifted remainder has at most 60 significant bits (p >= 4),
     so both fit OCaml's 63-bit int. Register updates are bit-identical to
     doing the same arithmetic in [Int64] — this path runs once per object
     per term in every Σ pass. *)
  let idx = Int64.to_int h land ((1 lsl t.p) - 1) in
  let rest = Int64.to_int (Int64.shift_right_logical h t.p) in
  (* Position of the lowest set bit of the remaining (64 - p) bits,
     counting from 1; an all-zero remainder scores 64 - p + 1. The
     textbook rank is the leftmost 1-bit; for a uniform hash both
     positions have the same geometric distribution, so the estimator is
     unchanged. *)
  let rank =
    if rest = 0 then 64 - t.p + 1
    else begin
      let r = ref 1 in
      let v = ref rest in
      while !v land 1 = 0 do
        incr r;
        v := !v lsr 1
      done;
      !r
    end
  in
  raise_to t idx rank

let add_string t s = add_hash t (Hashing.string s)
let add_int t i = add_hash t (Hashing.int i)

let alpha m =
  match m with
  | 16 -> 0.673
  | 32 -> 0.697
  | 64 -> 0.709
  | _ -> 0.7213 /. (1.0 +. (1.079 /. float_of_int m))

(* The harmonic sum over the registers, sum of 2^-r. With the top rank at
   most 52 - p, every term and every partial sum is a multiple of 2^-top
   no larger than 2^p, which a double holds exactly (2^(p + top) <= 2^52
   steps), so summing by rank class gives the register-order loop's sum
   bit for bit. Above that, rounding depends on the order, and the
   register-order loop runs. *)
let harmonic_sum t =
  let top = ref (Array.length t.hist - 1) in
  while !top > 0 && t.hist.(!top) = 0 do
    decr top
  done;
  let sum = ref 0.0 in
  if !top <= 52 - t.p then
    for r = 0 to !top do
      sum := !sum +. (float_of_int t.hist.(r) /. float_of_int (1 lsl r))
    done
  else
    for i = 0 to Bytes.length t.regs - 1 do
      let r = Char.code (Bytes.get t.regs i) in
      sum := !sum +. (1.0 /. float_of_int (1 lsl r))
    done;
  !sum

let count t =
  let m = 1 lsl t.p in
  let zeros = t.hist.(0) in
  let mf = float_of_int m in
  let raw = alpha m *. mf *. mf /. harmonic_sum t in
  if raw <= 2.5 *. mf && zeros > 0 then
    (* Linear counting for the small range. *)
    mf *. log (mf /. float_of_int zeros)
  else raw

let equal a b = a.p = b.p && Bytes.equal a.regs b.regs

let merge a b =
  assert (a.p = b.p);
  let t = create ~p:a.p () in
  for i = 0 to Bytes.length a.regs - 1 do
    raise_to t i
      (max (Char.code (Bytes.get a.regs i)) (Char.code (Bytes.get b.regs i)))
  done;
  t
