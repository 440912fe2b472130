module Jsonl = Batch.Jsonl

type t = {
  c_fd : Unix.file_descr;
  c_dec : Frame.decoder;
  c_ready : string Queue.t;  (* replies read off the socket, not yet returned *)
}

let fd t = t.c_fd
let close t = try Unix.close t.c_fd with Unix.Unix_error _ -> ()

let connect_error what ~attempts err =
  Diag.input ~code:"serve.connect"
    (Printf.sprintf "cannot connect to %s after %d attempt%s: %s" what
       attempts
       (if attempts = 1 then "" else "s")
       (Unix.error_message err))

(* Retry on the races a crash-only daemon makes routine — the socket
   file exists before listen, or not yet at all after a restart — pacing
   the attempts with the shared decorrelated-jitter backoff policy so a
   herd of clients hitting a restarting daemon spreads back out. *)
let connect_addr ?(timeout = 5.) ?(backoff = Batch.Retry.backoff ()) what
    domain addr =
  let deadline = Unix.gettimeofday () +. timeout in
  let rng = Random.State.make_self_init () in
  let rec attempt n prev_delay =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
        Ok { c_fd = fd; c_dec = Frame.decoder (); c_ready = Queue.create () }
    | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if
          Batch.Retry.exhausted backoff ~attempt:n
          || Unix.gettimeofday () >= deadline
        then Error (connect_error what ~attempts:n err)
        else begin
          let delay = Batch.Retry.next_delay backoff ~rng ~prev:prev_delay in
          let delay =
            Float.min delay (Float.max 0.01 (deadline -. Unix.gettimeofday ()))
          in
          (match Unix.select [] [] [] delay with
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          attempt (n + 1) delay
        end
  in
  attempt 1 0.

let connect ?timeout ?backoff path =
  connect_addr ?timeout ?backoff path Unix.PF_UNIX (Unix.ADDR_UNIX path)

let connect_tcp ?timeout ?backoff ~port () =
  connect_addr ?timeout ?backoff
    (Printf.sprintf "127.0.0.1:%d" port)
    Unix.PF_INET
    (Unix.ADDR_INET (Unix.inet_addr_loopback, port))

let build ~op ~id fields =
  Jsonl.to_string
    (Jsonl.Obj
       (("op", Jsonl.String op) :: ("id", Jsonl.String id) :: fields))

let send t payload = Frame.send t.c_fd payload

let recv ?(timeout = 30.) t =
  let received =
    if Queue.is_empty t.c_ready then
      Result.map
        (List.iter (fun p -> Queue.add p t.c_ready))
        (Frame.recv ~timeout t.c_dec t.c_fd)
    else Ok ()
  in
  match received with
  | Error d -> Error d
  | Ok () -> (
      match Queue.take_opt t.c_ready with
      | None -> Ok None
      | Some payload ->
          Result.map Option.some (Protocol.parse_response payload))

let request ?timeout t payload =
  match send t payload with
  | Error d -> Error d
  | Ok () -> (
      match recv ?timeout t with
      | Error d -> Error d
      | Ok (Some r) -> Ok r
      | Ok None ->
          Error
            (Diag.input ~code:"serve.io"
               "daemon closed the connection before responding"))
