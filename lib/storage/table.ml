type row = Value.t array

type t = {
  name : string;
  schema : Schema.t;
  mutable rows : row array;
  mutable len : int;
  (* Columnar views, materialized on first access and invalidated by
     [append]. Indexed by schema slot. *)
  mutable cols : Column.t option array;
}

let create ~name schema =
  { name; schema; rows = [||]; len = 0;
    cols = Array.make (Schema.arity schema) None }

let of_row_array ~name schema rows =
  { name; schema; rows; len = Array.length rows;
    cols = Array.make (Schema.arity schema) None }

let of_rows ~name schema rows = of_row_array ~name schema (Array.of_list rows)

let name t = t.name
let schema t = t.schema
let cardinality t = t.len

let rows t =
  if t.len = Array.length t.rows then t.rows else Array.sub t.rows 0 t.len

let append t row =
  Array.fill t.cols 0 (Array.length t.cols) None;
  let cap = Array.length t.rows in
  if t.len = cap then begin
    let ncap = max 16 (cap * 2) in
    let nrows = Array.make ncap row in
    Array.blit t.rows 0 nrows 0 t.len;
    t.rows <- nrows
  end;
  t.rows.(t.len) <- row;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Table.get";
  t.rows.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.rows.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.rows.(i)
  done;
  !acc

let column_values t col =
  let idx = Schema.index_of (schema t) col in
  Array.init t.len (fun i -> t.rows.(i).(idx))

(* Typed column views, cached per slot. All accessors share one
   materialization path ([Column.of_values] over the declared type). *)
let column_at t idx =
  match t.cols.(idx) with
  | Some c -> c
  | None ->
    let ty = (Schema.columns t.schema).(idx).Schema.ty in
    let vs = Array.init t.len (fun i -> t.rows.(i).(idx)) in
    let c = Column.of_values ty vs in
    t.cols.(idx) <- Some c;
    c

let column t col = column_at t (Schema.index_of (schema t) col)

let prime_columns t =
  for i = 0 to Schema.arity t.schema - 1 do
    ignore (column_at t i)
  done

let distinct_exact t col =
  let idx = Schema.index_of (schema t) col in
  let seen = Hashtbl.create 1024 in
  for i = 0 to t.len - 1 do
    Hashtbl.replace seen t.rows.(i).(idx) ()
  done;
  Hashtbl.length seen
