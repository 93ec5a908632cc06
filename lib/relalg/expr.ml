(* Every node carries its mask and its canonical key, computed once when
   it is built: the planner compares and fingerprints plans far more often
   than it builds them. Children come first in each record, so structural
   comparison still orders trees by shape; mask and key follow from it. *)
type t =
  | Leaf of { mask : Relset.t; key : string }
  | Join of { left : t; right : t; mask : Relset.t; key : string }
  | Stats of { inner : t; mask : Relset.t; key : string }

let mask = function Leaf { mask; _ } | Join { mask; _ } | Stats { mask; _ } -> mask
let key = function Leaf { key; _ } | Join { key; _ } | Stats { key; _ } -> key

let leaf m =
  if m = Relset.empty then invalid_arg "Expr.leaf: empty mask";
  Leaf { mask = m; key = string_of_int m }

let base i = leaf (Relset.singleton i)

let has_stats = function Stats _ -> true | Leaf _ | Join _ -> false

let join a b =
  let ma = mask a and mb = mask b in
  if not (Relset.disjoint ma mb) then
    invalid_arg "Expr.join: overlapping sides";
  if has_stats a || has_stats b then
    invalid_arg "Expr.join: cannot join a Σ-topped expression";
  (* Canonical child order keeps logically identical plans structurally
     identical. *)
  let left, right = if ma <= mb then (a, b) else (b, a) in
  let key = String.concat "" [ "("; key left; "*"; key right; ")" ] in
  Join { left; right; mask = Relset.union ma mb; key }

let stats e =
  if has_stats e then invalid_arg "Expr.stats: already has Σ";
  Stats { inner = e; mask = mask e; key = "S" ^ key e }

let strip_stats = function Stats { inner; _ } -> inner | (Leaf _ | Join _) as e -> e

let compare a b = String.compare (key a) (key b)
let equal a b = a == b || String.equal (key a) (key b)

let join_nodes e =
  let rec go acc = function
    | Leaf _ -> acc
    | Join { left = a; right = b; _ } -> ((mask a, mask b) :: go (go acc a) b)
    | Stats { inner; _ } -> go acc inner
  in
  List.rev (go [] e)

let rec leaves = function
  | Leaf { mask; _ } -> [ mask ]
  | Join { left; right; _ } -> leaves left @ leaves right
  | Stats { inner; _ } -> leaves inner

let describe q e =
  let mask_name m =
    match Relset.to_list m with
    | [ i ] -> (Query.rel_by_id q i).Query.alias
    | ids ->
      Printf.sprintf "[%s]"
        (String.concat ","
           (List.map (fun i -> (Query.rel_by_id q i).Query.alias) ids))
  in
  let rec go = function
    | Leaf { mask; _ } -> mask_name mask
    | Join { left; right; _ } -> Printf.sprintf "(%s ⨝ %s)" (go left) (go right)
    | Stats { inner; _ } -> Printf.sprintf "Σ(%s)" (go inner)
  in
  go e
