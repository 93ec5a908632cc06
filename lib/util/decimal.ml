(* Digits of a non-positive int, most significant first. Working below
   zero covers [min_int], whose negation overflows. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b i =
  if i < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b i
  end
  else add_neg_digits b (-i)

(* [Printf]'s %.4g is this primitive applied to the format string. *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^0 .. 10^22: every one is exactly representable in a double. *)
let pow10 = Array.init 23 (fun k -> Float.of_string ("1e" ^ string_of_int k))

(* One correctly rounded operation: x * 10^k within half an ulp. *)
let scale x k = if k >= 0 then x *. pow10.(k) else x /. pow10.(-k)

let place = [| 1000; 100; 10; 1 |]

(* Digit [i] (0 = leading) of the four significant digits [n]. *)
let add_digit b n i = Buffer.add_char b (Char.unsafe_chr (48 + (n / place.(i) mod 10)))

let add_digit_range b n first last =
  for i = first to last do add_digit b n i done

(* The four significant digits [n] (1000..9999) of a value whose leading
   digit has decimal exponent [e], as %.4g renders them: fixed notation for
   -4 <= e < 4, else d.ddde±XX; trailing zeros and a bare point dropped. *)
let add_digits b n e =
  let last =
    if n mod 1000 = 0 then 0 else if n mod 100 = 0 then 1 else if n mod 10 = 0 then 2 else 3
  in
  if e >= 0 && e < 4 then begin
    add_digit_range b n 0 e;
    if last > e then begin
      Buffer.add_char b '.';
      add_digit_range b n (e + 1) last
    end
  end
  else if e < 0 && e >= -4 then begin
    Buffer.add_string b "0.";
    for _ = 1 to -e - 1 do Buffer.add_char b '0' done;
    add_digit_range b n 0 last
  end
  else begin
    add_digit b n 0;
    if last > 0 then begin
      Buffer.add_char b '.';
      add_digit_range b n 1 last
    end;
    Buffer.add_char b 'e';
    Buffer.add_char b (if e < 0 then '-' else '+');
    if abs e < 10 then Buffer.add_char b '0';
    add_int b (abs e)
  end

let fallback b x = Buffer.add_string b (format_float "%.4g" x)

let add_g4 b x =
  if not (x > 0.0 && x < Float.infinity) then fallback b x
  else begin
    let k = 3 - int_of_float (Float.floor (Float.log10 x)) in
    (* log10 may land one decade off next to a power of ten. *)
    let k =
      if k < -22 || k > 22 then k
      else
        let y = scale x k in
        if y < 1000.0 then k + 1 else if y >= 10000.0 then k - 1 else k
    in
    if k < -22 || k > 22 then fallback b x
    else begin
      let y = scale x k in
      let whole = Float.floor y in
      let frac = y -. whole in
      if y < 1000.0 || y >= 10000.0 || Float.abs (frac -. 0.5) <= 1e-9 then fallback b x
      else begin
        let n = int_of_float whole + if frac > 0.5 then 1 else 0 in
        (* 9999.6 rounds up to 10000: 1000 in the next decade. *)
        if n = 10000 then add_digits b 1000 (4 - k) else add_digits b n (3 - k)
      end
    end
  end
