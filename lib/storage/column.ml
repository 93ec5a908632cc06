open Monsoon_util

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type int_kind = KInt | KDate | KBool

type t =
  | Ints of { kind : int_kind; data : ints }
  | Floats of floats
  | Dict of { codes : ints; dict : Value.t array; strs : string array }
  | Boxed of Value.t array

let length = function
  | Ints { data; _ } -> Bigarray.Array1.dim data
  | Floats data -> Bigarray.Array1.dim data
  | Dict { codes; _ } -> Bigarray.Array1.dim codes
  | Boxed vs -> Array.length vs

let agrees (ty : Value.ty) (v : Value.t) =
  match ty, v with
  | Value.TInt, Value.Int _
  | Value.TDate, Value.Date _
  | Value.TBool, Value.Bool _
  | Value.TFloat, Value.Float _
  | Value.TStr, Value.Str _ -> true
  | _ -> false

(* The one row→column materialization path: unbox against the declared
   type, falling back to [Boxed] the moment any value disagrees (a Null, a
   mixed column). Fallback columns stay usable — consumers that need the
   typed representation simply don't take their vectorized fast path. *)
let of_values (ty : Value.ty) (vs : Value.t array) : t =
  let n = Array.length vs in
  let exception Fallback in
  try
    match ty with
    | Value.TInt | Value.TDate | Value.TBool ->
      let data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
      let kind =
        match ty with
        | Value.TInt -> KInt
        | Value.TDate -> KDate
        | _ -> KBool
      in
      for i = 0 to n - 1 do
        match kind, vs.(i) with
        | KInt, Value.Int x | KDate, Value.Date x ->
          Bigarray.Array1.unsafe_set data i x
        | KBool, Value.Bool b ->
          Bigarray.Array1.unsafe_set data i (if b then 1 else 0)
        | _ -> raise Fallback
      done;
      Ints { kind; data }
    | Value.TFloat ->
      let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
      for i = 0 to n - 1 do
        match vs.(i) with
        | Value.Float f -> Bigarray.Array1.unsafe_set data i f
        | _ -> raise Fallback
      done;
      Floats data
    | Value.TStr ->
      (* Dictionary-encode, preserving first-appearance order and reusing
         the already-boxed values so decoding allocates nothing. *)
      let codes = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
      let seen = Hashtbl.create 64 in
      let dict = ref [] in
      let n_dict = ref 0 in
      for i = 0 to n - 1 do
        match vs.(i) with
        | Value.Str s as v ->
          let code =
            match Hashtbl.find_opt seen s with
            | Some c -> c
            | None ->
              let c = !n_dict in
              Hashtbl.add seen s c;
              dict := v :: !dict;
              incr n_dict;
              c
          in
          Bigarray.Array1.unsafe_set codes i code
        | _ -> raise Fallback
      done;
      let dict = Array.of_list (List.rev !dict) in
      let strs =
        Array.map (function Value.Str s -> s | _ -> assert false) dict
      in
      Dict { codes; dict; strs }
  with Fallback -> Boxed vs

let get t i =
  match t with
  | Ints { kind = KInt; data } -> Value.Int (Bigarray.Array1.get data i)
  | Ints { kind = KDate; data } -> Value.Date (Bigarray.Array1.get data i)
  | Ints { kind = KBool; data } -> Value.Bool (Bigarray.Array1.get data i <> 0)
  | Floats data -> Value.Float (Bigarray.Array1.get data i)
  | Dict { codes; dict; _ } -> dict.(Bigarray.Array1.get codes i)
  | Boxed vs -> vs.(i)

(* Per-element hash, bit-identical to [Value.hash] of the decoded value —
   Σ passes feed these straight into HyperLogLog registers. *)
let value_hash t i =
  match t with
  | Ints { kind = KInt; data } ->
    Hashing.combine 1L (Hashing.int (Bigarray.Array1.unsafe_get data i))
  | Ints { kind = KDate; data } ->
    Hashing.combine 4L (Hashing.int (Bigarray.Array1.unsafe_get data i))
  | Ints { kind = KBool; data } ->
    Hashing.int (if Bigarray.Array1.unsafe_get data i <> 0 then 3 else 5)
  | Floats data ->
    Hashing.combine 2L
      (Hashing.mix (Int64.bits_of_float (Bigarray.Array1.unsafe_get data i)))
  | Dict { codes; dict; _ } ->
    Value.hash dict.(Bigarray.Array1.unsafe_get codes i)
  | Boxed vs -> Value.hash vs.(i)
