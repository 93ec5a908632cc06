open Monsoon_util

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Date of int

let equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Date x, Date y -> x = y
  | (Null | Bool _ | Int _ | Float _ | Str _ | Date _), _ -> false

let compare = Stdlib.compare

let hash = function
  | Null -> 0x5D0F0E1EDEADL
  | Bool b -> Hashing.int (if b then 3 else 5)
  | Int i -> Hashing.combine 1L (Hashing.int i)
  | Float f -> Hashing.combine 2L (Hashing.mix (Int64.bits_of_float f))
  | Str s -> Hashing.combine 3L (Hashing.string s)
  | Date d -> Hashing.combine 4L (Hashing.int d)

let to_string = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Str s -> s
  | Date d -> Printf.sprintf "date:%d" d

let pp fmt v = Format.pp_print_string fmt (to_string v)

let type_error expected v =
  invalid_arg
    (Printf.sprintf "Value: expected %s, got %s" expected (to_string v))

let as_int = function Int i -> i | v -> type_error "int" v
let as_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | v -> type_error "float" v
let as_string = function Str s -> s | v -> type_error "string" v

type ty = TBool | TInt | TFloat | TStr | TDate

let ty_to_string = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TStr -> "string"
  | TDate -> "date"
