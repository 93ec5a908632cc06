open Monsoon_util

type attr =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type t = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  mutable stop : float;
  mutable attrs : (string * attr) list;
}

let duration s = s.stop -. s.start

type buffer = {
  block : Mutex.t;
  mutable spans : t list;  (* reverse completion order *)
}

type sink =
  | Null
  | Memory of buffer
  | Jsonl of Jsonl.writer
  | Callback of (t -> unit)
  | Multi of sink list

let memory_buffer () = { block = Mutex.create (); spans = [] }

let buffer_spans b =
  Mutex.lock b.block;
  let spans = b.spans in
  Mutex.unlock b.block;
  List.rev spans

let rec sink_enabled = function
  | Null -> false
  | Memory _ | Jsonl _ | Callback _ -> true
  | Multi sinks -> List.exists sink_enabled sinks

(* Span ids come from an atomic counter so concurrent domains never collide;
   the open-span stack is domain-local (each domain nests independently,
   parents never cross domains). The DLS key is allocated only for enabled
   sinks — Null tracers are created per query in bulk and must stay free. *)
type tracer = {
  sink : sink;
  next_id : int Atomic.t;
  stack : int list ref Domain.DLS.key option;
}

let make sink =
  { sink;
    next_id = Atomic.make 0;
    stack =
      (if sink_enabled sink then Some (Domain.DLS.new_key (fun () -> ref []))
       else None) }

let null () = make Null
let enabled t = sink_enabled t.sink

(* The span handed to thunks when nothing is recording; attribute writes on
   it are dropped so it cannot grow. *)
let dummy =
  { id = -1; parent = None; name = "";
    start = 0.0; stop = 0.0; attrs = [] }

let set_attr s k v =
  if s != dummy then s.attrs <- (k, v) :: List.remove_assoc k s.attrs

let attr_to_json = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Num (float_of_int i)
  | Float v -> Json.Num v
  | Str s -> Json.Str s

let to_json s =
  Json.Obj
    [ ("name", Json.Str s.name);
      ("id", Json.Num (float_of_int s.id));
      ("parent",
       match s.parent with
       | None -> Json.Null
       | Some p -> Json.Num (float_of_int p));
      ("start", Json.Num s.start);
      ("stop", Json.Num s.stop);
      ("attrs",
       Json.Obj (List.rev_map (fun (k, v) -> (k, attr_to_json v)) s.attrs)) ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "span: missing or bad %S" name)
  in
  let* name = field "name" Json.to_str in
  let* id = field "id" Json.to_int in
  let* start = field "start" Json.to_float in
  let* stop = field "stop" Json.to_float in
  let parent = Option.bind (Json.member "parent" j) Json.to_int in
  let attrs =
    match Json.member "attrs" j with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Bool b -> Some (k, Bool b)
          | Json.Num x ->
            Some (k, if Float.is_integer x then Int (int_of_float x) else Float x)
          | Json.Str s -> Some (k, Str s)
          | Json.Null | Json.Arr _ | Json.Obj _ -> None)
        fields
    | _ -> []
  in
  Ok { id; parent; name; start; stop; attrs = List.rev attrs }

let rec emit sink s =
  match sink with
  | Null -> ()
  | Memory b ->
    Mutex.lock b.block;
    b.spans <- s :: b.spans;
    Mutex.unlock b.block
  | Jsonl w -> ignore (Jsonl.append w [ Json.to_string (to_json s) ])
  | Callback f -> f s
  | Multi sinks -> List.iter (fun snk -> emit snk s) sinks

let with_span tr ?(attrs = []) name f =
  match tr.stack with
  | None -> f dummy
  | Some key ->
    let stack = Domain.DLS.get key in
    let id = Atomic.fetch_and_add tr.next_id 1 in
    let parent = match !stack with [] -> None | p :: _ -> Some p in
    let s = { id; parent; name; start = Timer.now (); stop = nan; attrs } in
    stack := id :: !stack;
    let close () =
      s.stop <- Timer.now ();
      (stack := (match !stack with _ :: rest -> rest | [] -> []));
      emit tr.sink s
    in
    (match f s with
    | x -> close (); x
    | exception e ->
      set_attr s "error" (Str (Printexc.to_string e));
      close ();
      raise e)
