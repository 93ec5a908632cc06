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
  mutable measured : int;
      (* bit [i] set when term [i] has a wildcard entry, for the ids below
         [measured_bits]; the planner asks this for every interesting term
         of every state it expands *)
}

let measured_bits = Sys.int_size - 1

let create () =
  { counts = IntMap.empty;
    wildcard = IntMap.empty;
    scoped = PairMap.empty;
    sel_scoped = IntMap.empty;
    measured = 0 }

let copy t =
  { counts = t.counts;
    wildcard = t.wildcard;
    scoped = t.scoped;
    sel_scoped = t.sel_scoped;
    measured = t.measured }

let set_count t mask c = t.counts <- IntMap.add (mask : Relset.t) c t.counts

let count t mask = IntMap.find_opt (mask : Relset.t) t.counts

let set_distinct t ~term ~scope d =
  match scope with
  | Wildcard ->
    t.wildcard <- IntMap.add term d t.wildcard;
    if term < measured_bits then t.measured <- t.measured lor (1 lsl term)
  | For_pred p -> t.scoped <- PairMap.add (term, p) d t.scoped
  | For_select -> t.sel_scoped <- IntMap.add term d t.sel_scoped

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

let add_int b i = Buffer.add_int64_le b (Int64.of_int i)
let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

(* Each map as its size, then its bindings in key order: the sizes
   delimit the sections, so equal bytes mean equal maps. *)
let fingerprint t =
  let b = Buffer.create 256 in
  let int_map m =
    add_int b (IntMap.cardinal m);
    IntMap.iter
      (fun k v ->
        add_int b k;
        add_float b v)
      m
  in
  int_map t.counts;
  int_map t.wildcard;
  add_int b (PairMap.cardinal t.scoped);
  PairMap.iter
    (fun (tm, p) v ->
      add_int b tm;
      add_int b p;
      add_float b v)
    t.scoped;
  int_map t.sel_scoped;
  Buffer.contents b
