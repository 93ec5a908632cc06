open Monsoon_storage
open Monsoon_relalg

(* A batch view over one materialized relation: its row ids, plus
   gather-once typed columns for each slot the vectorized operators touch.
   A slot's column is the base table's cached column gathered through the
   ids; when the relation is an unfiltered base table the view borrows the
   table's own cached columns, so repeated executions over one catalog
   never re-materialize a base column. *)
type t = {
  inter : Intermediate.t;
  tables : Table.t array;  (* base table per layout position *)
  pos : int array;  (* layout position covering each absolute slot *)
  cols : Column.t option array;
  borrow : bool;  (* the ids are the identity over [tables.(0)] *)
}

let of_intermediate ?(borrow = false) q catalog (inter : Intermediate.t) =
  let tables =
    Array.map
      (fun rel -> Catalog.find catalog (Query.rel_by_id q rel).Query.table)
      inter.Intermediate.rels
  in
  let pos = Array.make inter.Intermediate.width 0 in
  Array.iteri
    (fun k rel ->
      let off = inter.Intermediate.offsets.(rel) in
      Array.fill pos off (Schema.arity (Table.schema tables.(k))) k)
    inter.Intermediate.rels;
  { inter;
    tables;
    pos;
    cols = Array.make inter.Intermediate.width None;
    borrow }

let intermediate t = t.inter

(* The gather rule: a column read through row ids has the representation
   [Column.of_values] gives the gathered values. Typed columns stay typed
   (a subset of ints is ints); a Dict column keeps the base dictionary —
   hashing and equality go through the strings, never the codes; a Boxed
   column is re-derived from its gathered values, so a Null-free subset of
   a Null-bearing column comes back typed. *)
let gather_column ty (col : Column.t) (ids : int array) ~n : Column.t =
  let gather_ints data =
    let out = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set out i
        (Bigarray.Array1.get data ids.(i))
    done;
    out
  in
  match col with
  | Column.Ints { kind; data } -> Column.Ints { kind; data = gather_ints data }
  | Column.Floats data ->
    let out = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set out i
        (Bigarray.Array1.get data ids.(i))
    done;
    Column.Floats out
  | Column.Dict { codes; dict; strs } ->
    Column.Dict { codes = gather_ints codes; dict; strs }
  | Column.Boxed vs -> Column.of_values ty (Array.init n (fun i -> vs.(ids.(i))))

let column t slot =
  match t.cols.(slot) with
  | Some c -> c
  | None ->
    let k = t.pos.(slot) in
    let tbl = t.tables.(k) in
    let j = slot - t.inter.Intermediate.offsets.(t.inter.Intermediate.rels.(k)) in
    let base = Table.column_at tbl j in
    let c =
      if t.borrow then base
      else
        gather_column
          (Schema.columns (Table.schema tbl)).(j).Schema.ty base
          t.inter.Intermediate.ids.(k) ~n:t.inter.Intermediate.card
    in
    t.cols.(slot) <- Some c;
    c

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

(* [Value.equal a.(i) b.(j)] as a pair predicate (hash-join key
   verification and straddling join filters). *)
let eq_cols (a : Column.t) (b : Column.t) : int -> int -> bool =
  match a, b with
  | Column.Ints { kind = ka; data = da }, Column.Ints { kind = kb; data = db }
    ->
    if ka <> kb then fun _ _ -> false
    else
      fun i j ->
        Bigarray.Array1.unsafe_get da i = Bigarray.Array1.unsafe_get db j
  | Column.Floats da, Column.Floats db ->
    fun i j ->
      feq (Bigarray.Array1.unsafe_get da i) (Bigarray.Array1.unsafe_get db j)
  | Column.Dict { codes = ca; strs = sa; _ }, Column.Dict { codes = cb; strs = sb; _ }
    ->
    fun i j ->
      let x = sa.(Bigarray.Array1.unsafe_get ca i)
      and y = sb.(Bigarray.Array1.unsafe_get cb j) in
      x == y || String.equal x y
  | _ ->
    (* At least one side boxed or mismatched: decode and compare. *)
    fun i j -> Value.equal (Column.get a i) (Column.get b j)

(* Bucketing hash for join keys: equal values (by [Stdlib.compare]) must
   hash equally, so floats are normalized (-0. to +0., every NaN to one
   canonical NaN) before mixing — unlike {!Column.value_hash}, which is
   pinned to [Value.hash]'s raw bits for Σ parity. *)
let nan_hash = Monsoon_util.Hashing.combine 2L 0x7FF8_0000_0000_0001L

let key_hash (col : Column.t) : int -> int64 =
  let open Monsoon_util in
  match col with
  | Column.Floats data ->
    fun i ->
      let f = Bigarray.Array1.unsafe_get data i in
      if Float.is_nan f then nan_hash
      else Hashing.combine 2L (Hashing.mix (Int64.bits_of_float (f +. 0.0)))
  | Column.Boxed vs ->
    fun i ->
      (match vs.(i) with
      | Value.Float f ->
        if Float.is_nan f then nan_hash
        else Hashing.combine 2L (Hashing.mix (Int64.bits_of_float (f +. 0.0)))
      | v -> Value.hash v)
  | c -> fun i -> Column.value_hash c i

(* Native-int finalizer for bucketing (splitmix-style, truncated to
   OCaml's 63-bit int). Equal ints in, equal buckets out — and since
   emission order comes from chain order, never from hash bits, the
   bucketing hash is free to avoid Int64 boxing entirely. *)
let mix_int x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1B03738712FAD5C9 in
  x lxor (x lsr 32)

(* Per-pair bucketing hashes for one join key: all that matters is that
   values equal under [Stdlib.compare] bucket equally across the two
   sides. Matching typed representations get an allocation-free
   native-int scheme; Boxed or mismatched pairs fall back to the Int64
   {!key_hash} path (which is representation-independent). *)
let key_hash_pair (a : Column.t) (b : Column.t) : (int -> int) * (int -> int)
    =
  let generic c =
    let h = key_hash c in
    fun i -> Int64.to_int (h i)
  in
  let float_hash data i =
    let f = Bigarray.Array1.unsafe_get data i in
    if Float.is_nan f then 0x7ff8_0000
    else mix_int (Int64.to_int (Int64.bits_of_float (f +. 0.0)))
  in
  match a, b with
  | Column.Ints { kind = ka; data = da }, Column.Ints { kind = kb; data = db }
    when ka = kb ->
    ( (fun i -> mix_int (Bigarray.Array1.unsafe_get da i)),
      fun i -> mix_int (Bigarray.Array1.unsafe_get db i) )
  | Column.Floats da, Column.Floats db -> (float_hash da, float_hash db)
  | ( Column.Dict { codes = ca; strs = sa; _ },
      Column.Dict { codes = cb; strs = sb; _ } ) ->
    ( (fun i -> mix_int (Hashtbl.hash sa.(Bigarray.Array1.unsafe_get ca i))),
      fun i -> mix_int (Hashtbl.hash sb.(Bigarray.Array1.unsafe_get cb i)) )
  | _ -> (generic a, generic b)

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
