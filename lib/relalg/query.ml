type rel = { id : int; table : string; alias : string }

type t = {
  name : string;
  rels : rel array;
  preds : Predicate.t array;
  terms : Term.t array;
  preds_of_term : int list array;   (* term id -> pred ids *)
  select_of_rel : int list array;   (* rel id -> select pred ids *)
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

let newly_evaluable t ~left ~right =
  let union = Relset.union left right in
  Array.to_list t.preds
  |> List.filter (fun p ->
         Predicate.evaluable p union
         && (not (Predicate.evaluable p left))
         && not (Predicate.evaluable p right))
  |> List.map Predicate.id

let connecting t left right =
  Array.to_list t.preds
  |> List.filter (fun p ->
         match Predicate.join_sides p with
         | None -> false
         | Some (l, r) ->
           let lm = Term.rels l and rm = Term.rels r in
           (Relset.subset lm left && Relset.subset rm right)
           || (Relset.subset lm right && Relset.subset rm left))
  |> List.map Predicate.id

let connected t left right = connecting t left right <> []

let preds_of_term t id = t.preds_of_term.(id)
let select_preds_of_rel t id = t.select_of_rel.(id)

let interesting_terms t mask =
  Array.to_list t.terms
  |> List.filter (fun tm ->
         t.preds_of_term.(tm.Term.id) <> [] && Term.evaluable tm mask)

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
    { name = b.bname; rels; preds; terms; preds_of_term; select_of_rel }
end
