type crash = Signal of string | Exit of int

type t =
  | Done of string
  | Rejected of Diag.t
  | Timeout
  | Oom
  | Crashed of crash

let label = function
  | Done _ -> "done"
  | Rejected _ -> "rejected"
  | Timeout -> "timeout"
  | Oom -> "oom"
  | Crashed _ -> "crashed"

let is_failure = function
  | Timeout | Oom | Crashed _ -> true
  | Rejected d -> Diag.is_bug d
  | Done _ -> false

let describe = function
  | Done _ -> "done"
  | Rejected d -> Printf.sprintf "rejected (%s)" d.Diag.code
  | Timeout -> "timeout"
  | Oom -> "oom"
  | Crashed (Signal s) -> Printf.sprintf "crashed (%s)" s
  | Crashed (Exit n) -> Printf.sprintf "crashed (exit %d)" n

(* OCaml's Sys.sig* numbers are runtime-internal (negative); map the ones a
   worker can plausibly die of. *)
let signal_name n =
  let known =
    [
      (Sys.sigsegv, "SIGSEGV"); (Sys.sigkill, "SIGKILL");
      (Sys.sigabrt, "SIGABRT"); (Sys.sigbus, "SIGBUS");
      (Sys.sigill, "SIGILL"); (Sys.sigfpe, "SIGFPE");
      (Sys.sigint, "SIGINT"); (Sys.sigterm, "SIGTERM");
      (Sys.sigpipe, "SIGPIPE"); (Sys.sigquit, "SIGQUIT");
    ]
  in
  match List.assoc_opt n known with
  | Some name -> name
  | None -> Printf.sprintf "signal %d" n

(* The document is Diag.to_json's, valid JSON by construction. *)
let diag_to_json d = Result.get_ok (Jsonl.parse (Diag.to_json d))

(* An absent severity, file or span defaults, so records written with
   only code, category and message still load. *)
let diag_of_json v =
  let severity =
    if Jsonl.str "severity" v = Some "warning" then Diag.Warning else Diag.Error
  in
  let span =
    Option.bind (Jsonl.member "span" v) (fun sp ->
        let at k = Jsonl.int k sp in
        match (at "line", at "col", at "end_line", at "end_col") with
        | Some line, Some col, Some end_line, Some end_col ->
            Some { Diag.line; col; end_line; end_col }
        | _ -> None)
  in
  match (Jsonl.str "code" v, Jsonl.str "category" v, Jsonl.str "message" v) with
  | Some code, Some cat, Some message -> (
      match Diag.category_of_name cat with
      | Some category ->
          let file = Jsonl.str "file" v in
          Ok (Diag.make ~severity ?span ?file category ~code message)
      | None -> Error ("unknown diagnostic category " ^ cat))
  | _ -> Error "diag object missing code/category/message"

let to_fields = function
  | Done payload ->
      [ ("verdict", Jsonl.String "done"); ("payload", Jsonl.String payload) ]
  | Rejected d ->
      [ ("verdict", Jsonl.String "rejected"); ("diag", diag_to_json d) ]
  | Timeout -> [ ("verdict", Jsonl.String "timeout") ]
  | Oom -> [ ("verdict", Jsonl.String "oom") ]
  | Crashed (Signal s) ->
      [ ("verdict", Jsonl.String "crashed"); ("signal", Jsonl.String s) ]
  | Crashed (Exit n) ->
      [ ("verdict", Jsonl.String "crashed"); ("exit", Jsonl.Int n) ]

let of_fields v =
  match Jsonl.str "verdict" v with
  | None -> Error "record has no verdict field"
  | Some "done" -> (
      match Jsonl.str "payload" v with
      | Some p -> Ok (Done p)
      | None -> Error "done verdict has no payload")
  | Some "rejected" -> (
      match Jsonl.member "diag" v with
      | Some d -> Result.map (fun d -> Rejected d) (diag_of_json d)
      | None -> Error "rejected verdict has no diag")
  | Some "timeout" -> Ok Timeout
  | Some "oom" -> Ok Oom
  | Some "crashed" -> (
      match (Jsonl.str "signal" v, Jsonl.int "exit" v) with
      | Some s, _ -> Ok (Crashed (Signal s))
      | None, Some n -> Ok (Crashed (Exit n))
      | None, None -> Error "crashed verdict has neither signal nor exit")
  | Some other -> Error ("unknown verdict " ^ other)

let equal a b =
  match (a, b) with
  | Done p, Done q -> String.equal p q
  | Rejected d, Rejected e ->
      String.equal d.Diag.code e.Diag.code
      && d.Diag.category = e.Diag.category
      && String.equal d.Diag.message e.Diag.message
  | Timeout, Timeout | Oom, Oom -> true
  | Crashed c, Crashed d -> c = d
  | _ -> false
