open Monsoon_storage

type t =
  | Join of { id : int; left : Term.t; right : Term.t }
  | Select of { id : int; term : Term.t; value : Value.t }

let id = function Join { id; _ } | Select { id; _ } -> id

let rels = function
  | Join { left; right; _ } -> Relset.union (Term.rels left) (Term.rels right)
  | Select { term; _ } -> Term.rels term

let terms = function
  | Join { left; right; _ } -> [ left; right ]
  | Select { term; _ } -> [ term ]

let describe = function
  | Join { left; right; _ } ->
    Printf.sprintf "%s = %s" (Term.describe left) (Term.describe right)
  | Select { term; value; _ } ->
    Printf.sprintf "%s = %s" (Term.describe term) (Value.to_string value)

let join_sides = function
  | Join { left; right; _ } -> Some (left, right)
  | Select _ -> None
