type column = { name : string; ty : Value.ty }

type t = { cols : column array; index : (string, int) Hashtbl.t }

let make cols =
  let arr = Array.of_list cols in
  let index = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem index c.name then
        invalid_arg (Printf.sprintf "Schema.make: duplicate column %s" c.name);
      Hashtbl.add index c.name i)
    arr;
  { cols = arr; index }

let columns t = t.cols
let arity t = Array.length t.cols
let index_of t name = Hashtbl.find t.index name
let mem t name = Hashtbl.mem t.index name

let pp fmt t =
  Format.fprintf fmt "(%s)"
    (String.concat ", "
       (Array.to_list
          (Array.map
             (fun c -> Printf.sprintf "%s:%s" c.name (Value.ty_to_string c.ty))
             t.cols)))
