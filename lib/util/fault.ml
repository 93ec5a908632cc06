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
  let rec go seen spec = function
    | [] -> Ok spec
    | part :: rest -> (
      match String.index_opt part ':' with
      | None ->
        Error (Printf.sprintf "fault %S is not of the form class:value" part)
      | Some i -> (
        let key = String.sub part 0 i in
        let v = String.sub part (i + 1) (String.length part - i - 1) in
        let go = go (key :: seen) in
        match key with
        | _ when List.mem key seen ->
          Error (Printf.sprintf "fault class %S listed twice" key)
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
  if parts = [] then Error "empty fault spec" else go [] no_faults parts

type t = Disabled | Armed of { spec : spec; rng : Rng.t }

let disabled = Disabled
let plan spec rng = Armed { spec; rng }

(* One draw per checkpoint whose rate is positive: a rate-0 class never
   touches the RNG, so enabling one class cannot shift another's stream
   relative to a spec that omits it. *)
let check t kind rate_of =
  match t with
  | Disabled -> ()
  | Armed a ->
    let rate = rate_of a.spec in
    if rate > 0.0 && Rng.unit_float a.rng < rate then raise (Injected kind)

let udf t = check t "udf" (fun s -> s.udf_rate)
let row t = check t "row" (fun s -> s.row_rate)
let build t = check t "build" (fun s -> s.build_rate)
