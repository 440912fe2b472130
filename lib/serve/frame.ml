let header_bytes = 4

let encode payload =
  let n = String.length payload in
  let b = Bytes.create (header_bytes + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.to_string b

(* --- Incremental decoding ---------------------------------------------- *)

type decoder = { max_frame : int; mutable pending : string }

let decoder ?(max_frame = Batch.Jsonl.default_max_document_bytes) () =
  { max_frame; pending = "" }

let has_partial d = String.length d.pending > 0

let feed d chunk =
  if chunk <> "" then d.pending <- d.pending ^ chunk;
  let rec pop acc =
    let len = String.length d.pending in
    if len < header_bytes then Ok (List.rev acc)
    else begin
      let n = Int32.to_int (String.get_int32_be d.pending 0) in
      if n < 0 || n > d.max_frame then
        Error
          (Diag.input ~code:"serve.frame-too-large"
             (Printf.sprintf "frame header announces %d bytes; the limit is %d"
                n d.max_frame))
      else if len < header_bytes + n then Ok (List.rev acc)
      else begin
        let payload = String.sub d.pending header_bytes n in
        d.pending <-
          String.sub d.pending (header_bytes + n) (len - header_bytes - n);
        pop (payload :: acc)
      end
    end
  in
  pop []

(* --- Blocking IO -------------------------------------------------------- *)

let io_error err =
  Diag.input ~code:"serve.io"
    (Printf.sprintf "socket IO failed: %s" (Unix.error_message err))

let write_all fd s = Result.map_error io_error (Batch.Jsonl.write_all fd s)

let send fd payload = write_all fd (encode payload)

let recv ?timeout d fd =
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
  let chunk = Bytes.create 65536 in
  let rec wait_readable () =
    let budget =
      match deadline with
      | None -> 1.0
      | Some dl -> dl -. Unix.gettimeofday ()
    in
    if budget <= 0. then `Timeout
    else
      match Unix.select [ fd ] [] [] (Float.min budget 1.0) with
      | [], _, _ -> wait_readable ()
      | _ :: _, _, _ -> `Readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable ()
  in
  let rec loop () =
    match wait_readable () with
    | `Timeout ->
        Error
          (Diag.input ~code:"serve.timeout"
             "timed out waiting for a response frame")
    | `Readable -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
            if has_partial d then
              Error
                (Diag.input ~code:"serve.io"
                   "peer closed the connection mid-frame")
            else Ok []
        | n -> (
            match feed d (Bytes.sub_string chunk 0 n) with
            | Ok [] -> loop ()
            | result -> result)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error (err, _, _) -> Error (io_error err))
  in
  loop ()
