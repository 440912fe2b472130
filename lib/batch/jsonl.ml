type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* The fewest significant digits that read back as the same float, whole
   numbers below 1e17 in full ("83080.0", not "8.308e+04"), always with a
   '.' or an exponent so the text parses back as a [Float]. No "nan" or
   "inf" token may escape into JSON: they clamp to 0.0. *)
let float_text f =
  if not (Float.is_finite f) then "0.0"
  else
    (* Reading back is monotone in the digit count: bisect for the least. *)
    let rec shortest lo hi =
      let mid = (lo + hi) / 2 in
      if lo >= hi then lo
      else if float_of_string (Printf.sprintf "%.*g" mid f) = f then shortest lo mid
      else shortest (mid + 1) hi
    in
    let p = shortest 1 17 in
    let whole = if f = 0. then 1 else 1 + int_of_float (Float.log10 (Float.abs f)) in
    let p = if whole <= 17 then max p whole else p in
    let s = Printf.sprintf "%.*g" p f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> float_text f
  | String s -> Diag.json_string s
  | List vs -> "[" ^ String.concat "," (List.map to_string vs) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Diag.json_string k ^ ":" ^ to_string v)
             fields)
      ^ "}"

(* --- Parsing ----------------------------------------------------------- *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape"
                   else begin
                     let hex = String.sub s (!pos + 1) 4 in
                     (match int_of_string_opt ("0x" ^ hex) with
                     | None -> fail "bad \\u escape"
                     | Some code when code < 0x80 ->
                         Buffer.add_char buf (Char.chr code)
                     | Some code ->
                         (* Our own emitter only \u-escapes control chars;
                            render anything else as UTF-8. *)
                         if code < 0x800 then begin
                           Buffer.add_char buf
                             (Char.chr (0xC0 lor (code lsr 6)));
                           Buffer.add_char buf
                             (Char.chr (0x80 lor (code land 0x3F)))
                         end
                         else begin
                           Buffer.add_char buf
                             (Char.chr (0xE0 lor (code lsr 12)));
                           Buffer.add_char buf
                             (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                           Buffer.add_char buf
                             (Char.chr (0x80 lor (code land 0x3F)))
                         end);
                     pos := !pos + 4
                   end
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            advance ();
            loop ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && number_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

let default_max_document_bytes = 1 lsl 20

let parse_bounded ?(max_bytes = default_max_document_bytes) s =
  if String.length s > max_bytes then
    Error
      (Diag.input ~code:"batch.frame-too-large"
         (Printf.sprintf "document is %d bytes; the limit is %d"
            (String.length s) max_bytes))
  else
    Result.map_error
      (fun msg -> Diag.input ~code:"batch.jsonl" ("malformed JSON: " ^ msg))
      (parse s)

(* --- Accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let scalar = function
  | String s -> Some s
  | Int i -> Some (string_of_int i)
  | Float f -> Some (float_text f)
  | _ -> None

let str key v = Option.bind (member key v) to_str
let int key v = Option.bind (member key v) to_int
let float key v = Option.bind (member key v) to_float

(* --- The store --------------------------------------------------------- *)

(* One write(2) per call, so an EINTR never hides a partial write. *)
let write_all fd s =
  let rec go off =
    if off >= String.length s then Ok ()
    else
      match Unix.single_write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (err, _, _) -> Error err
  in
  go 0

type writer = { fd : Unix.file_descr; path : string; code : string }

(* Run [f] under an exclusive lock on the whole file. lockf covers the
   file from the current offset on, so every holder seeks to 0 first;
   O_APPEND writes still land at the end. A pipe or a device (--journal
   /dev/stdout) cannot be locked, and has no size to cut: [f] just runs. *)
let locked fd f =
  if (Unix.fstat fd).Unix.st_kind <> Unix.S_REG then f ()
  else begin
    let rec lock () =
      try Unix.lockf fd Unix.F_LOCK 0
      with Unix.Unix_error (Unix.EINTR, _, _) -> lock ()
    in
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    lock ();
    Fun.protect f ~finally:(fun () ->
        try
          ignore (Unix.lseek fd 0 Unix.SEEK_SET);
          Unix.lockf fd Unix.F_ULOCK 0
        with Unix.Unix_error _ -> ())
  end

(* Offset just past the last '\n' before [stop], or 0: the end of the
   whole records. *)
let rec whole_prefix fd stop =
  if stop = 0 then 0
  else begin
    let start = max 0 (stop - 4096) in
    let buf = Bytes.create (stop - start) in
    ignore (Unix.lseek fd start Unix.SEEK_SET);
    let n = Unix.read fd buf 0 (stop - start) in
    match Bytes.rindex_from_opt buf (n - 1) '\n' with
    | Some i -> start + i + 1
    | None -> whole_prefix fd start
  end

(* A torn last line left where it is would prefix the next record and
   turn into a corrupt middle line. Cut it under the lock, so a record
   another process is appending right now is never mistaken for one. *)
let open_writer ~code path =
  match
    let fd = Unix.openfile path [ Unix.O_RDWR; O_CREAT; O_APPEND ] 0o644 in
    try
      locked fd (fun () ->
          let size = (Unix.fstat fd).Unix.st_size in
          let keep = whole_prefix fd size in
          if keep < size then Unix.ftruncate fd keep);
      fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  with
  | fd -> Ok { fd; path; code }
  | exception Unix.Unix_error (err, _, _) ->
      Error
        (Diag.input ~code ~file:path
           ("cannot open for appending: " ^ Unix.error_message err))

(* One line, one write: a SIGKILL cannot tear a write that already
   entered the kernel, so the worst case is a torn last line from a crash
   between records. A vanished sink (EPIPE, ENOSPC, EBADF) is a typed
   error, so it never raises through a supervision loop. *)
let append w line =
  let write () =
    Result.map (fun () -> Unix.fsync w.fd) (write_all w.fd (line ^ "\n"))
  in
  match locked w.fd write with
  | Ok () -> Ok ()
  | Error err | exception Unix.Unix_error (err, _, _) ->
      Error
        (Diag.input ~code:w.code ~file:w.path
           ("append failed: " ^ Unix.error_message err))

let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()

let load ~code ~what path decode =
  match
    if not (Sys.file_exists path) then ""
    else if Sys.is_directory path then raise (Sys_error "is a directory")
    else In_channel.with_open_bin path In_channel.input_all
  with
  | exception Sys_error msg ->
      Error (Diag.input ~code ~file:path ("cannot read: " ^ msg))
  | body ->
      (* A whole store ends in '\n', so the split ends in a "" we drop; a
         torn last line has no terminator and is dropped too (its record
         never completed). *)
      let rec decode_lines acc lineno = function
        | [] | [ _ ] -> Ok (List.rev acc)
        | l :: rest when String.trim l = "" ->
            decode_lines acc (lineno + 1) rest
        | l :: rest -> (
            match Result.bind (parse l) decode with
            | Ok r -> decode_lines (r :: acc) (lineno + 1) rest
            | Error msg ->
                Error
                  (Diag.input ~code ~file:path
                     ~span:(Diag.point ~line:lineno ~col:1)
                     (Printf.sprintf "corrupt %s: %s" what msg)))
      in
      decode_lines [] 1 (String.split_on_char '\n' body)
