open Monsoon_storage
open Monsoon_relalg

type t = {
  mask : Relset.t;
  offsets : int array;
  width : int;
  rels : int array;
  ids : int array array;
  card : int;
}

let table_of q catalog rel = Catalog.find catalog (Query.rel_by_id q rel).Query.table

let single q catalog ~ids ~card rel =
  let offsets = Array.make (Query.n_rels q) (-1) in
  offsets.(rel) <- 0;
  { mask = Relset.singleton rel;
    offsets;
    width = Schema.arity (Table.schema (table_of q catalog rel));
    rels = [| rel |];
    ids = [| ids |];
    card }

let of_base q catalog ~ids rel =
  single q catalog ~ids ~card:(Array.length ids) rel

(* 0, 1, 2, ...: the ids of every unfiltered scan are a prefix of this one
   array, grown by doubling. Racing domains may each install a longer
   copy; every installed array is a valid identity, so any one serves. *)
let identity = Atomic.make [||]

let identity_prefix n =
  let a = Atomic.get identity in
  if Array.length a >= n then a
  else begin
    let a = Array.init (max n (2 * Array.length a)) Fun.id in
    Atomic.set identity a;
    a
  end

let of_table q catalog rel =
  let n = Table.cardinality (table_of q catalog rel) in
  single q catalog ~ids:(identity_prefix n) ~card:n rel

let cardinality t = t.card

let position t rel =
  let rec go k =
    if k = Array.length t.rels then
      invalid_arg (Printf.sprintf "Intermediate.position: instance %d absent" rel)
    else if t.rels.(k) = rel then k
    else go (k + 1)
  in
  go 0

let col_index q catalog t ~rel ~col =
  if t.offsets.(rel) < 0 then
    invalid_arg (Printf.sprintf "Intermediate.col_index: instance %d absent" rel);
  t.offsets.(rel) + Schema.index_of (Table.schema (table_of q catalog rel)) col

let of_join a b ~card ~ids =
  assert (Relset.disjoint a.mask b.mask);
  let offsets = Array.make (Array.length a.offsets) (-1) in
  Array.iteri
    (fun i off ->
      if off >= 0 then offsets.(i) <- off
      else if b.offsets.(i) >= 0 then offsets.(i) <- a.width + b.offsets.(i))
    a.offsets;
  { mask = Relset.union a.mask b.mask;
    offsets;
    width = a.width + b.width;
    rels = Array.append a.rels b.rels;
    ids;
    card }

let rows q catalog t =
  let tables = Array.map (table_of q catalog) t.rels in
  let base = Array.map Table.rows tables in
  if Array.length t.rels = 1 then
    Array.init t.card (fun i -> base.(0).(t.ids.(0).(i)))
  else begin
    let arity = Array.map (fun tbl -> Schema.arity (Table.schema tbl)) tables in
    Array.init t.card (fun i ->
        let row = Array.make t.width Value.Null in
        Array.iteri
          (fun k rel ->
            Array.blit base.(k).(t.ids.(k).(i)) 0 row t.offsets.(rel) arity.(k))
          t.rels;
        row)
  end
