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

(* --- the write side --- *)

type writer = {
  path : string;
  max_bytes : int option;
  mutable fd : Unix.file_descr option;  (* [None] once closed *)
  mutable bytes : int;  (* size of the live file *)
  mutable failed : int;
}

(* One lock for every writer in the process, so a batch never tears or
   interleaves with another domain's, whichever writer owns the file. *)
let lock = Mutex.create ()

let open_fd path =
  Unix.openfile path [ O_WRONLY; O_APPEND; O_CREAT; O_CLOEXEC ] 0o644

let open_writer ?max_bytes ?(truncate = false) path =
  match open_fd path with
  | exception Unix.Unix_error (e, _, _) ->
    Error (path ^ ": " ^ Unix.error_message e)
  | fd ->
    (* A device such as /dev/full ignores the truncation and has no size. *)
    (try if truncate then Unix.ftruncate fd 0 with Unix.Unix_error _ -> ());
    let bytes = try (Unix.fstat fd).st_size with Unix.Unix_error _ -> 0 in
    Ok { path; max_bytes; fd = Some fd; bytes; failed = 0 }

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* POSIX rename replaces the previous rotation, so disk use stays within
   about twice [max_bytes]. A file that cannot be reopened leaves the
   writer closed. *)
let rotate w fd =
  close_fd fd;
  (try Sys.rename w.path (w.path ^ ".1") with Sys_error _ -> ());
  w.bytes <- 0;
  w.fd <- (try Some (open_fd w.path) with Unix.Unix_error _ -> None)

(* The bytes of [s] that reached the OS: all of them unless a write fails. *)
let write_all fd s =
  let rec go off =
    match Unix.single_write_substring fd s off (String.length s - off) with
    | n when n > 0 && off + n < String.length s -> go (off + n)
    | n -> off + n
    | exception Unix.Unix_error (EINTR, _, _) -> go off
    | exception Unix.Unix_error _ -> off
  in
  go 0

let append w lines =
  let batch = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  Mutex.protect lock (fun () ->
      (match (w.fd, w.max_bytes) with
      | Some fd, Some max
        when w.bytes > 0 && w.bytes + String.length batch > max ->
        rotate w fd
      | _ -> ());
      let written = match w.fd with None -> 0 | Some fd -> write_all fd batch in
      w.bytes <- w.bytes + written;
      (* A line reached the OS when its newline did. *)
      let newline n c = if c = '\n' then n + 1 else n in
      let ok = String.fold_left newline 0 (String.sub batch 0 written) in
      w.failed <- w.failed + List.length lines - ok;
      ok)

let failed w = Mutex.protect lock (fun () -> w.failed)

let close w =
  Mutex.protect lock (fun () ->
      Option.iter close_fd w.fd;
      w.fd <- None)

let append_lines path lines =
  match open_writer path with
  | Error _ -> 0
  | Ok w -> Fun.protect ~finally:(fun () -> close w) (fun () -> append w lines)
