type t = Unix_path of string | Tcp of int

let describe = function
  | Unix_path p -> p
  | Tcp port -> Printf.sprintf "tcp:%d" port

let parse s =
  let s = String.trim s in
  if s = "" then
    Error (Diag.usage ~code:"cluster.endpoint" "empty endpoint")
  else if String.length s > 4 && String.sub s 0 4 = "tcp:" then
    match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
    | Some port when port > 0 && port < 65536 -> Ok (Tcp port)
    | _ ->
        Error
          (Diag.usage ~code:"cluster.endpoint"
             (Printf.sprintf "%s: want tcp:PORT with 0 < PORT < 65536" s))
  else Ok (Unix_path s)

let parse_list s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
        match parse part with
        | Ok e -> go (e :: acc) rest
        | Error d -> Error d)
  in
  go []
    (List.filter
       (fun p -> String.trim p <> "")
       (String.split_on_char ',' s))

let close t fd =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match t with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

exception Not_a_socket

let listen_one ~code t =
  let fail why =
    Error
      (Diag.input ~code
         (Printf.sprintf "cannot listen on %s: %s" (describe t) why))
  in
  let open_listener domain addr =
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    try
      if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.set_nonblock fd;
      Unix.bind fd addr;
      Unix.listen fd 64;
      fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  match
    match t with
    | Tcp port ->
        open_listener Unix.PF_INET
          (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    | Unix_path path ->
        (match (Unix.lstat path).Unix.st_kind with
        | Unix.S_SOCK -> Unix.unlink path
        | _ -> raise Not_a_socket
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
        open_listener Unix.PF_UNIX (Unix.ADDR_UNIX path)
  with
  | fd -> Ok fd
  | exception Not_a_socket -> fail "the path exists and is not a socket"
  | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err)

let listen ~code endpoints =
  let rec go bound = function
    | [] -> Ok (List.rev_map snd bound)
    | e :: rest -> (
        match listen_one ~code e with
        | Ok fd -> go ((e, fd) :: bound) rest
        | Error d ->
            List.iter (fun (e, fd) -> close e fd) bound;
            Error d)
  in
  go [] endpoints

(* Drain the whole accept queue: select reports a listener once however
   many connections wait on it. *)
let accept lfd =
  let rec go acc =
    match Unix.accept ~cloexec:true lfd with
    | fd, _ -> go (fd :: acc)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        go acc
    | exception Unix.Unix_error (_, _, _) -> List.rev acc
  in
  go []

let connect ?timeout ?backoff = function
  | Unix_path path -> Client.connect ?timeout ?backoff path
  | Tcp port -> Client.connect_tcp ?timeout ?backoff ~port ()
