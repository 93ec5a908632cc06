open Monsoon_storage

(* {2 Vectorized predicates}

   Each builder specializes on the column representation once and returns
   a per-index closure; the closures replicate [Value.equal] /
   [Stdlib.compare _ _ = 0] semantics exactly (NaN equals NaN, 0. equals
   -0., cross-constructor comparisons are false). *)

let feq a b = a = b || (Float.is_nan a && Float.is_nan b)

(* [Value.equal (col.(i)) v] as an index predicate. *)
let eq_const (col : Column.t) (v : Value.t) : int -> bool =
  match col, v with
  | Column.Ints { kind = Column.KInt; data }, Value.Int x ->
    fun i -> Bigarray.Array1.unsafe_get data i = x
  | Column.Ints { kind = Column.KDate; data }, Value.Date x ->
    fun i -> Bigarray.Array1.unsafe_get data i = x
  | Column.Ints { kind = Column.KBool; data }, Value.Bool b ->
    let x = if b then 1 else 0 in
    fun i -> Bigarray.Array1.unsafe_get data i = x
  | Column.Floats data, Value.Float f ->
    fun i -> feq (Bigarray.Array1.unsafe_get data i) f
  | Column.Dict { codes; strs; _ }, Value.Str s ->
    let code = ref (-1) in
    Array.iteri (fun c e -> if !code < 0 && String.equal e s then code := c) strs;
    let code = !code in
    if code < 0 then fun _ -> false
    else fun i -> Bigarray.Array1.unsafe_get codes i = code
  | Column.Boxed vs, v -> fun i -> Value.equal vs.(i) v
  | (Column.Ints _ | Column.Floats _ | Column.Dict _), _ ->
    (* Constructor mismatch: never equal. *)
    fun _ -> false

(* {2 Join key codes} *)

(* Values under the row engine's key equality: [Value.equal] is
   structural equality on values, and [Hashtbl.hash] hashes [-0.] as
   [0.] and every NaN alike. An Int, the usual UDF key, skips the
   generic hash for one multiply whose high bits, shifted down, pick the
   bucket, so ints sharing their low bits still spread. *)
module Interned = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal

  let hash = function
    | Value.Int i -> (i * 0x2545F4914F6CDD1D) lsr 32
    | v -> Hashtbl.hash v
end)

let ints_init n f =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set a i (f i)
  done;
  a

type read = { col : Column.t; ids : int array; n : int }
type codes = { data : Column.ints; at : int array }

(* Codes are equal exactly when the values are equal under structural
   equality, the row engine's [Hashtbl]'s: NaN equals NaN, [0.] equals
   [-0.], Null equals Null, and values of different constructors (an Int
   and a Date) never meet. *)
let key_codes (b : read) (p : read) : codes * codes =
  match b.col, p.col with
  | Column.Ints { kind = kb; data = db }, Column.Ints { kind = kp; data = dp }
    when kb = kp ->
    ({ data = db; at = b.ids }, { data = dp; at = p.ids })
  | _ ->
    let index = Interned.create b.n in
    let code v =
      match Interned.find index v with
      | c -> c
      | exception Not_found ->
        let c = Interned.length index in
        Interned.add index v c;
        c
    in
    let bc = ints_init b.n (fun i -> code (Column.get b.col b.ids.(i))) in
    let pc =
      ints_init p.n (fun i ->
          match Interned.find index (Column.get p.col p.ids.(i)) with
          | c -> c
          | exception Not_found -> -1)
    in
    let at = Intermediate.identity_prefix (max b.n p.n) in
    ({ data = bc; at }, { data = pc; at })

(* {2 Selection vectors} *)

type sel = { mutable idx : int array; mutable n : int }

let sel_all n = { idx = Array.init n (fun i -> i); n }

(* In-place refinement: keep the selected indices satisfying [p]. *)
let refine p sel =
  let k = ref 0 in
  for i = 0 to sel.n - 1 do
    let r = Array.unsafe_get sel.idx i in
    if p r then begin
      Array.unsafe_set sel.idx !k r;
      incr k
    end
  done;
  sel.n <- !k

let next_pow2 n =
  let rec go k = if k >= n then k else go (k * 2) in
  go 16

(* Fused first-predicate scan: equivalent to
   [let s = sel_all n in refine (eq_const col v) s; s], but the common
   typed representations run a direct loop — no identity-vector
   initialization and no per-index closure call on rejected rows. *)
let sel_eq_const (col : Column.t) (v : Value.t) n : sel =
  let idx = Array.make (max 1 n) 0 in
  let k = ref 0 in
  let keep i =
    Array.unsafe_set idx !k i;
    incr k
  in
  (match col, v with
  | Column.Ints { kind = Column.KInt; data }, Value.Int x
  | Column.Ints { kind = Column.KDate; data }, Value.Date x ->
    for i = 0 to n - 1 do
      if Bigarray.Array1.unsafe_get data i = x then keep i
    done
  | Column.Floats data, Value.Float f ->
    for i = 0 to n - 1 do
      if feq (Bigarray.Array1.unsafe_get data i) f then keep i
    done
  | Column.Dict { codes; strs; _ }, Value.Str s ->
    let code = ref (-1) in
    Array.iteri
      (fun c e -> if !code < 0 && String.equal e s then code := c)
      strs;
    let code = !code in
    if code >= 0 then
      for i = 0 to n - 1 do
        if Bigarray.Array1.unsafe_get codes i = code then keep i
      done
  | _ ->
    let p = eq_const col v in
    for i = 0 to n - 1 do
      if p i then keep i
    done);
  { idx; n = !k }
