type rejected = { line : int; reason : string }

let read path decode =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let rec go lineno ok bad =
      match input_line ic with
      | exception End_of_file -> Ok (List.rev ok, List.rev bad)
      | exception Sys_error msg -> Error msg
      | text -> (
        let decoded =
          if text = "" then Error "blank line"
          else Result.bind (Json.of_string text) decode
        in
        match decoded with
        | Ok v -> go (lineno + 1) (v :: ok) bad
        | Error reason -> go (lineno + 1) ok ({ line = lineno; reason } :: bad))
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> go 1 [] [])

let lock = Mutex.create ()
let with_lock f = Mutex.protect lock f

let append_lines path lines =
  with_lock (fun () ->
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | exception Sys_error _ -> ()
      | oc ->
        (try
           List.iter
             (fun l ->
               output_string oc l;
               output_char oc '\n')
             lines
         with Sys_error _ -> ());
        close_out_noerr oc)
