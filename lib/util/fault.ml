exception Injected of string

type spec = {
  udf_rate : float;
  row_rate : float;
  build_rate : float;
  worker_kills : int;
}

let no_faults =
  { udf_rate = 0.0; row_rate = 0.0; build_rate = 0.0; worker_kills = 0 }

(* %g when it reads back as the same float (every rate typed on a command
   line so far), else the 17 digits that always do. *)
let rate_to_string r =
  let short = Printf.sprintf "%g" r in
  if Float.equal (float_of_string short) r then short else Printf.sprintf "%.17g" r

let spec_to_string s =
  Printf.sprintf "udf:%s,row:%s,build:%s,worker:%d" (rate_to_string s.udf_rate)
    (rate_to_string s.row_rate) (rate_to_string s.build_rate) s.worker_kills

let spec_of_string str =
  let parse_rate key v =
    match float_of_string_opt v with
    | Some r when r >= 0.0 && r <= 1.0 -> Ok r
    | _ -> Error (Printf.sprintf "%s rate %S not in [0,1]" key v)
  in
  let rec go spec = function
    | [] -> Ok spec
    | part :: rest -> (
      match String.index_opt part ':' with
      | None ->
        Error (Printf.sprintf "fault %S is not of the form class:value" part)
      | Some i -> (
        let key = String.sub part 0 i in
        let v = String.sub part (i + 1) (String.length part - i - 1) in
        match key with
        | "udf" ->
          Result.bind (parse_rate key v) (fun r ->
              go { spec with udf_rate = r } rest)
        | "row" ->
          Result.bind (parse_rate key v) (fun r ->
              go { spec with row_rate = r } rest)
        | "build" ->
          Result.bind (parse_rate key v) (fun r ->
              go { spec with build_rate = r } rest)
        | "worker" -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> go { spec with worker_kills = n } rest
          | _ -> Error (Printf.sprintf "worker kill count %S invalid" v))
        | _ ->
          Error
            (Printf.sprintf "unknown fault class %S (udf|row|build|worker)" key)))
  in
  let parts =
    String.split_on_char ',' (String.trim str)
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then Error "empty fault spec" else go no_faults parts

type armed_plan = { spec : spec; rng : Rng.t; mutable fired : int }
type t = Disabled | Armed of armed_plan

let disabled = Disabled
let armed = function Disabled -> false | Armed _ -> true

(* A plan that can never fire is the disabled plan: an armed plan pins the
   executor to the scalar path, which a rate-0 spec must not cost. Worker
   kills are read from the spec by the pool owners, never from the plan. *)
let plan spec rng =
  if spec.udf_rate = 0.0 && spec.row_rate = 0.0 && spec.build_rate = 0.0 then
    Disabled
  else Armed { spec; rng; fired = 0 }

let fire a kind =
  a.fired <- a.fired + 1;
  raise (Injected kind)

(* One draw per checkpoint whose rate is positive: a rate-0 class never
   touches the RNG, so enabling one class cannot shift another's stream
   relative to a spec that omits it. *)
let check t kind rate_of =
  match t with
  | Disabled -> ()
  | Armed a ->
    let rate = rate_of a.spec in
    if rate > 0.0 && Rng.unit_float a.rng < rate then fire a kind

let udf t = check t "udf" (fun s -> s.udf_rate)
let row t = check t "row" (fun s -> s.row_rate)
let build t = check t "build" (fun s -> s.build_rate)

let injected = function Disabled -> 0 | Armed a -> a.fired
let worker_kills = function Disabled -> 0 | Armed a -> a.spec.worker_kills
