(* HTTP framing (lib/server/http.ml) without a socket: the reader is fed
   from a string in arbitrary chunk sizes, so message boundaries land
   anywhere relative to reads. *)

open Monsoon_server

(* A read function serving [input] in chunks of [1 + size], cycling
   through [sizes] (all that fits when empty); [0] ends the input. *)
let chunked input sizes =
  let sizes = Array.of_list (List.map succ sizes) in
  let off = ref 0 and k = ref 0 in
  fun buf pos len ->
    let size =
      if sizes = [||] then len else sizes.(!k mod Array.length sizes)
    in
    incr k;
    let n = min (min size len) (String.length input - !off) in
    Bytes.blit_string input !off buf pos n;
    off := !off + n;
    n

(* Every request until the reader stops ([None]) or refuses one. *)
let read_all rd =
  let rec go acc =
    match Http.read_request rd with
    | Some (Ok r) -> go (Ok r :: acc)
    | Some (Error e) -> List.rev (Error e :: acc)
    | None -> List.rev acc
  in
  go []

let request_gen =
  let open QCheck.Gen in
  let token =
    string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; '-'; '/'; '.'; '%' ]) (0 -- 12)
  in
  map
    (fun (meth, path, body, keep_alive) ->
      { Http.meth; path = "/" ^ path; body; keep_alive })
    (quad (oneofl [ "GET"; "POST"; "PUT" ]) token
       (frequency [ (3, string_size (0 -- 64)); (1, string_size (0 -- 9000)) ])
       bool)

let print_request (r : Http.request) =
  Printf.sprintf "%s %s keep_alive=%b body=%S" r.Http.meth r.Http.path
    r.Http.keep_alive r.Http.body

let sizes = QCheck.Gen.(list_size (0 -- 6) (0 -- 5000))

(* Input dense in the tokens the framing cares about. *)
let http_ish =
  let open QCheck.Gen in
  map (String.concat "")
    (list_size (0 -- 24)
       (oneofl
          [ "GET / HTTP/1.1"; "POST /query HTTP/1.1"; "\r\n"; "\r\n\r\n";
            "Content-Length: "; "Connection: keep-alive"; "-"; "0x10"; "1_0";
            "5"; "70000"; "99999999999999999999"; ":"; " "; "x"; "\n" ]))

let prop_framing =
  QCheck.Test.make ~count:1000
    ~name:"read_request never raises; rendered requests round-trip"
    (QCheck.make
       ~print:(fun (junk, reqs, _) ->
         Printf.sprintf "junk=%S requests=[%s]" junk
           (String.concat "; " (List.map print_request reqs)))
       QCheck.Gen.(
         triple
           (oneof [ string; http_ish ])
           (list_size (0 -- 5) request_gen)
           sizes))
    (fun (junk, reqs, sizes) ->
      ignore (read_all (Http.reader (chunked junk sizes)));
      let wire =
        String.concat "" (List.map (Http.render_request ~host:"h:1") reqs)
      in
      read_all (Http.reader (chunked wire sizes)) = List.map Result.ok reqs)

let read_one input =
  match Http.read_request (Http.reader (chunked input [])) with
  | Some (Ok _) -> "ok"
  | Some (Error (code, _)) -> string_of_int code
  | None -> "none"

let test_content_length_edges () =
  List.iter
    (fun (cl, want) ->
      Alcotest.(check string) ("Content-Length: " ^ cl) want
        (read_one
           (Printf.sprintf
              "POST / HTTP/1.1\r\nContent-Length: %s\r\n\r\n{}" cl)))
    [ ("2", "ok"); ("-5", "400"); ("0x2", "400"); ("1_0", "400");
      ("", "400"); ("3", "400"); ("70000", "413");
      ("99999999999999999999", "413"); ("0000000000002", "ok") ];
  Alcotest.(check string) "header block over 8 KiB" "none"
    (read_one ("GET / HTTP/1.1\r\nX: " ^ String.make 9000 'x' ^ "\r\n\r\n"))

let test_response_framing () =
  let rd =
    Http.reader
      (chunked
         "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\
          Connection: keep-alive\r\n\r\n\
          okHTTP/1.1 404 Not Found\r\nContent-Length: 9\r\n\r\nshort"
         [ 3 ])
  in
  Alcotest.(check (result (triple int string bool) string))
    "first response" (Ok (200, "ok", true)) (Http.read_response rd);
  Alcotest.(check (result (triple int string bool) string))
    "short body" (Error "short read: Content-Length 9, body 5 bytes")
    (Http.read_response rd)

let () =
  Alcotest.run "http"
    [ ( "framing",
        [ Alcotest.test_case "Content-Length edges" `Quick
            test_content_length_edges;
          Alcotest.test_case "response framing" `Quick test_response_framing;
          QCheck_alcotest.to_alcotest prop_framing ] ) ]
