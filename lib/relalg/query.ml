type rel = { id : int; table : string; alias : string }

(* The mask arrays are pure functions of the predicates and terms, built
   once by [Builder.build] so that the planner's per-call questions
   (connectivity, newly evaluable predicates, interesting terms) are bit
   operations over arrays. Each is linear in terms plus predicates. *)
type t = {
  name : string;
  rels : rel array;
  preds : Predicate.t array;
  terms : Term.t array;
  preds_of_term : int list array;   (* term id -> pred ids *)
  select_of_rel : int list array;   (* rel id -> select pred ids *)
  term_masks : Relset.t array;      (* term id -> instances it reads *)
  pred_masks : Relset.t array;      (* pred id -> instances it touches *)
  left_masks : Relset.t array;      (* pred id -> left term's instances; 0 for selections *)
  right_masks : Relset.t array;     (* pred id -> right term's instances; 0 for selections *)
  interesting_ids : int array;      (* ids of terms with a predicate, ascending *)
  interesting_masks : Relset.t array;  (* their instances, index-aligned *)
}

let name t = t.name
let rels t = t.rels
let rel_by_id t i = t.rels.(i)
let n_rels t = Array.length t.rels
let all_mask t = Relset.full (n_rels t)
let preds t = t.preds
let pred t i = t.preds.(i)
let terms t = t.terms
let term t i = t.terms.(i)

let n_preds t = Array.length t.preds
let term_mask t id = t.term_masks.(id)
let is_join_pred t id = t.left_masks.(id) <> Relset.empty
let join_left_mask t id = t.left_masks.(id)
let join_right_mask t id = t.right_masks.(id)

(* The mask tests below are written as bit operations: they run in the
   planner's inner loops, where a call per [Relset] test is measurable. *)

let becomes_evaluable t id ~left ~right =
  let m = t.pred_masks.(id) in
  m land (left lor right) = m && m land left <> m && m land right <> m

let newly_evaluable t ~left ~right =
  let acc = ref [] in
  for id = n_preds t - 1 downto 0 do
    if becomes_evaluable t id ~left ~right then acc := id :: !acc
  done;
  !acc

(* Does join predicate [id] connect the two sides, one term within each? *)
let connects t id left right =
  let lm = t.left_masks.(id) and rm = t.right_masks.(id) in
  lm <> 0
  && ((lm land left = lm && rm land right = rm)
     || (lm land right = lm && rm land left = rm))

let connecting t left right =
  let acc = ref [] in
  for id = n_preds t - 1 downto 0 do
    if connects t id left right then acc := id :: !acc
  done;
  !acc

let connected t left right =
  let n = n_preds t in
  let rec go id = id < n && (connects t id left right || go (id + 1)) in
  go 0

let preds_of_term t id = t.preds_of_term.(id)
let select_preds_of_rel t id = t.select_of_rel.(id)

let n_interesting t = Array.length t.interesting_ids
let interesting_id t k = t.interesting_ids.(k)
let interesting_mask t k = t.interesting_masks.(k)

let interesting_terms t mask =
  let acc = ref [] in
  for k = n_interesting t - 1 downto 0 do
    let m = t.interesting_masks.(k) in
    if m land mask = m then
      acc := t.terms.(t.interesting_ids.(k)) :: !acc
  done;
  !acc

module Builder = struct
  type query = t

  type t = {
    bname : string;
    mutable brels : rel list;       (* reversed *)
    mutable bterms : Term.t list;   (* reversed *)
    mutable bpreds : Predicate.t list; (* reversed *)
    mutable next_rel : int;
    mutable next_term : int;
    mutable next_pred : int;
  }

  let create ~name =
    { bname = name; brels = []; bterms = []; bpreds = [];
      next_rel = 0; next_term = 0; next_pred = 0 }

  let rel b ~table ~alias =
    let id = b.next_rel in
    if id >= 62 then invalid_arg "Query.Builder.rel: too many instances";
    b.next_rel <- id + 1;
    b.brels <- { id; table; alias } :: b.brels;
    id

  let check_args b args =
    List.iter
      (fun (r, _) ->
        if r < 0 || r >= b.next_rel then
          invalid_arg "Query.Builder.term: unknown relation instance")
      args

  let term b udf args =
    check_args b args;
    let t = Term.make ~id:b.next_term udf args in
    b.next_term <- b.next_term + 1;
    b.bterms <- t :: b.bterms;
    t

  let fresh_pred_id b =
    let id = b.next_pred in
    b.next_pred <- id + 1;
    id

  let join_pred b l r =
    if not (Relset.disjoint (Term.rels l) (Term.rels r)) then
      invalid_arg "Query.Builder.join_pred: overlapping sides";
    b.bpreds <- Predicate.Join { id = fresh_pred_id b; left = l; right = r } :: b.bpreds

  let select_pred b tm value =
    b.bpreds <- Predicate.Select { id = fresh_pred_id b; term = tm; value } :: b.bpreds

  let build b : query =
    if b.next_rel = 0 then invalid_arg "Query.Builder.build: no relations";
    let rels = Array.of_list (List.rev b.brels) in
    let terms = Array.of_list (List.rev b.bterms) in
    let preds = Array.of_list (List.rev b.bpreds) in
    Array.iteri (fun i r -> assert (r.id = i)) rels;
    Array.iteri (fun i tm -> assert (tm.Term.id = i)) terms;
    Array.iteri (fun i p -> assert (Predicate.id p = i)) preds;
    let preds_of_term = Array.make (Array.length terms) [] in
    Array.iter
      (fun p ->
        List.iter
          (fun tm ->
            preds_of_term.(tm.Term.id) <-
              Predicate.id p :: preds_of_term.(tm.Term.id))
          (Predicate.terms p))
      preds;
    Array.iteri (fun i l -> preds_of_term.(i) <- List.rev l) preds_of_term;
    let select_of_rel = Array.make (Array.length rels) [] in
    Array.iter
      (fun p ->
        match p with
        | Predicate.Select { term = tm; _ } when Term.is_single_rel tm ->
          let r = Relset.min_elt (Term.rels tm) in
          select_of_rel.(r) <- Predicate.id p :: select_of_rel.(r)
        | Predicate.Select _ | Predicate.Join _ -> ())
      preds;
    Array.iteri (fun i l -> select_of_rel.(i) <- List.rev l) select_of_rel;
    let term_masks = Array.map Term.rels terms in
    let pred_masks = Array.map Predicate.rels preds in
    let side pick =
      Array.map
        (fun p ->
          match Predicate.join_sides p with
          | Some sides -> term_masks.((pick sides).Term.id)
          | None -> Relset.empty)
        preds
    in
    let interesting_ids =
      Array.of_list
        (List.filter_map
           (fun tm -> if preds_of_term.(tm.Term.id) <> [] then Some tm.Term.id else None)
           (Array.to_list terms))
    in
    { name = b.bname; rels; preds; terms; preds_of_term; select_of_rel; term_masks;
      pred_masks; left_masks = side fst; right_masks = side snd; interesting_ids;
      interesting_masks = Array.map (fun id -> term_masks.(id)) interesting_ids }
end
