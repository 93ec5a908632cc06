open Monsoon_util
open Monsoon_relalg

type scope = Wildcard | For_pred of int | For_select

module IntMap = Map.Make (Int)

(* Lexicographic, the order of polymorphic [compare] on int pairs, without
   its generic traversal. *)
module PairMap = Map.Make (struct
  type t = int * int

  let compare (a1, b1) (a2, b2) =
    match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c
end)

(* Persistent maps behind mutable fields: [copy] is four field reads, not
   four table copies. The simulator clones the catalog on every stochastic
   transition (thousands of times per MCTS planning step), and the clones
   share almost all of their entries — exactly the persistent-structure
   sweet spot. The mutating interface is unchanged; it swaps roots. *)
type t = {
  mutable counts : float IntMap.t;  (* Relset.t masks are ints *)
  mutable wildcard : float IntMap.t;  (* term id -> measured d *)
  mutable scoped : float PairMap.t;  (* (term id, pred id) -> assumed d *)
  mutable sel_scoped : float IntMap.t;  (* term id -> assumed d, selections *)
  mutable version : int;  (* bumped on every set_*; overwrite-safe *)
  mutable measured : int;
      (* bit [i] set when term [i] has a wildcard entry, for the ids below
         [measured_bits]; the planner asks this for every interesting term
         of every state it expands *)
  mutable fingerprint : string;
      (* [fingerprint]'s rendering, "" until asked for; every set_* clears
         it. A plan edit keeps its state's catalog, so the planner's next
         state key reuses it. *)
}

let measured_bits = Sys.int_size - 1

let create () =
  { counts = IntMap.empty;
    wildcard = IntMap.empty;
    scoped = PairMap.empty;
    sel_scoped = IntMap.empty;
    version = 0;
    measured = 0;
    fingerprint = "" }

let copy t =
  { counts = t.counts;
    wildcard = t.wildcard;
    scoped = t.scoped;
    sel_scoped = t.sel_scoped;
    version = t.version;
    measured = t.measured;
    fingerprint = t.fingerprint }

let set_count t mask c =
  t.counts <- IntMap.add (mask : Relset.t) c t.counts;
  t.version <- t.version + 1;
  t.fingerprint <- ""

let count t mask = IntMap.find_opt (mask : Relset.t) t.counts

let set_distinct t ~term ~scope d =
  (match scope with
  | Wildcard ->
    t.wildcard <- IntMap.add term d t.wildcard;
    if term < measured_bits then t.measured <- t.measured lor (1 lsl term)
  | For_pred p -> t.scoped <- PairMap.add (term, p) d t.scoped
  | For_select -> t.sel_scoped <- IntMap.add term d t.sel_scoped);
  t.version <- t.version + 1;
  t.fingerprint <- ""

let distinct t ~term ~pred =
  match IntMap.find_opt term t.wildcard with
  | Some d -> Some d
  | None -> (
    match pred with
    | Some p -> PairMap.find_opt (term, p) t.scoped
    | None -> IntMap.find_opt term t.sel_scoped)

let has_measurement t ~term =
  if term < measured_bits then t.measured land (1 lsl term) <> 0
  else IntMap.mem term t.wildcard

let counts t = IntMap.fold (fun k v acc -> (k, v) :: acc) t.counts []

let distincts t =
  IntMap.fold (fun k v acc -> (k, Wildcard, v) :: acc) t.wildcard []
  @ PairMap.fold (fun (tm, p) v acc -> (tm, For_pred p, v) :: acc) t.scoped []
  @ IntMap.fold (fun tm v acc -> (tm, For_select, v) :: acc) t.sel_scoped []

(* The order of polymorphic [compare] on these triples, monomorphically:
   by term, then Wildcard < For_select < For_pred by predicate (constant
   constructors sort before the others, by declaration order). A term has
   one entry per scope, so the value never decides. *)
let scope_rank = function Wildcard -> 0 | For_select -> 1 | For_pred _ -> 2

let compare_distinct (t1, s1, _) (t2, s2, _) =
  match Int.compare t1 t2 with
  | 0 -> (
    match (s1, s2) with
    | For_pred p1, For_pred p2 -> Int.compare p1 p2
    | _ -> Int.compare (scope_rank s1) (scope_rank s2))
  | c -> c

let fingerprint t =
  if t.fingerprint <> "" then t.fingerprint
  else begin
    let b = Buffer.create 128 in
    let first = ref true in
    let sep () = if !first then first := false else Buffer.add_char b ',' in
    Buffer.add_string b "C[";
    IntMap.iter
      (fun m c ->
        sep ();
        Decimal.add_int b m;
        Buffer.add_char b ':';
        Decimal.add_g4 b c)
      t.counts;
    Buffer.add_string b "]D[";
    first := true;
    List.iter
      (fun (tm, scope, d) ->
        sep ();
        Decimal.add_int b tm;
        Buffer.add_char b '@';
        (match scope with
        | Wildcard -> Buffer.add_char b '*'
        | For_pred p -> Decimal.add_int b p
        | For_select -> Buffer.add_char b 's');
        Buffer.add_char b ':';
        Decimal.add_g4 b d)
      (List.sort compare_distinct (distincts t));
    (* The version disambiguates overwrites that the %.4g renderings above
       collapse (same key, same printed value, different history). *)
    Buffer.add_string b "]V[";
    Decimal.add_int b t.version;
    Buffer.add_char b ']';
    t.fingerprint <- Buffer.contents b;
    t.fingerprint
  end

let size t =
  IntMap.cardinal t.counts + IntMap.cardinal t.wildcard
  + PairMap.cardinal t.scoped
  + IntMap.cardinal t.sel_scoped

let version t = t.version
