type t = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  out : string Queue.t;  (* encoded frames not yet fully written *)
  mutable off : int;  (* bytes of the head frame already written *)
  mutable alive : bool;
  mutable poisoned : bool;  (* a frame broke max_frame: input is dropped *)
}

let create ?max_frame fd =
  Unix.set_nonblock fd;
  {
    fd;
    dec = Frame.decoder ?max_frame ();
    out = Queue.create ();
    off = 0;
    alive = true;
    poisoned = false;
  }

let fd c = c.fd
let alive c = c.alive
let has_partial c = Frame.has_partial c.dec
let has_output c = not (Queue.is_empty c.out)

let close c =
  if c.alive then begin
    c.alive <- false;
    Queue.clear c.out;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* One write(2) per call, so an EINTR never hides a partial write. *)
let rec flush c =
  if c.alive && not (Queue.is_empty c.out) then begin
    let head = Queue.peek c.out in
    match
      Unix.single_write_substring c.fd head c.off (String.length head - c.off)
    with
    | n ->
        c.off <- c.off + n;
        if c.off = String.length head then begin
          ignore (Queue.pop c.out);
          c.off <- 0
        end;
        flush c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush c
    | exception Unix.Unix_error (_, _, _) -> close c
  end

let send c payload =
  if c.alive then begin
    Queue.add (Frame.encode payload) c.out;
    flush c
  end

type status = Open | Eof | Failed | Too_large of Diag.t

(* Single-threaded callers: one read buffer serves every connection. *)
let chunk = Bytes.create 65536

let read c =
  let rec go acc =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> (acc, Eof)
    | _ when c.poisoned -> (acc, Open)
    | n -> (
        match Frame.feed c.dec (Bytes.sub_string chunk 0 n) with
        | Error d ->
            c.poisoned <- true;
            (acc, Too_large d)
        | Ok frames -> go (List.rev_append frames acc))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (acc, Open)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc
    | exception Unix.Unix_error (_, _, _) -> (acc, Failed)
  in
  let acc, status = if c.alive then go [] else ([], Failed) in
  (List.rev acc, status)
