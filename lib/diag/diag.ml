type severity = Error | Warning

type category = Usage | Input | Infeasible | Internal | Partial | Unavailable

type span = { line : int; col : int; end_line : int; end_col : int }

type t = {
  code : string;
  category : category;
  severity : severity;
  message : string;
  span : span option;
  file : string option;
}

let point ~line ~col = { line; col; end_line = line; end_col = col + 1 }

let span_of_word ~line ~col word =
  { line; col; end_line = line; end_col = col + max 1 (String.length word) }

let make ?(severity = Error) ?span ?file category ~code message =
  { code; category; severity; message; span; file }

let usage ?span ?file ~code message = make ?span ?file Usage ~code message
let input ?span ?file ~code message = make ?span ?file Input ~code message
let infeasible ?(code = "infeasible") message = make Infeasible ~code message
let internal ?(code = "internal") message = make Internal ~code message
let partial ?(code = "batch.partial-failure") message = make Partial ~code message

let unavailable ?(code = "serve.overloaded") message =
  make Unavailable ~code message

let makef ?severity ?span ?file category ~code fmt =
  Printf.ksprintf (make ?severity ?span ?file category ~code) fmt

let with_file file d =
  match d.file with Some _ -> d | None -> { d with file = Some file }

let prefix p d = { d with message = p ^ d.message }
let message d = d.message

let exit_code d =
  match d.category with
  | Usage -> 2
  | Input -> 3
  | Infeasible -> 4
  | Internal -> 5
  | Partial -> 6
  | Unavailable -> 7

let category_name = function
  | Usage -> "usage"
  | Input -> "input"
  | Infeasible -> "infeasible"
  | Internal -> "internal"
  | Partial -> "partial"
  | Unavailable -> "unavailable"

let category_of_name = function
  | "usage" -> Some Usage
  | "input" -> Some Input
  | "infeasible" -> Some Infeasible
  | "internal" -> Some Internal
  | "partial" -> Some Partial
  | "unavailable" -> Some Unavailable
  | _ -> None

let severity_name = function Error -> "error" | Warning -> "warning"

let is_bug d = d.category = Internal

let location d =
  match (d.file, d.span) with
  | None, None -> ""
  | Some f, None -> f ^ ": "
  | None, Some sp -> Printf.sprintf "%d:%d: " sp.line sp.col
  | Some f, Some sp -> Printf.sprintf "%s:%d:%d: " f sp.line sp.col

let to_string d =
  Printf.sprintf "%s[%s] %s%s" (severity_name d.severity) d.code (location d)
    d.message

let pp ppf d = Format.pp_print_string ppf (to_string d)

(* Minimal JSON emission: the only non-scalar values are strings, which we
   escape by hand to avoid a json dependency. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

let to_json d =
  let buf = Buffer.create 128 in
  let field name value =
    Buffer.add_string buf (Printf.sprintf "%S:%s," name value)
  in
  Buffer.add_char buf '{';
  field "code" (Printf.sprintf "\"%s\"" (json_escape d.code));
  field "category" (Printf.sprintf "\"%s\"" (category_name d.category));
  field "severity" (Printf.sprintf "\"%s\"" (severity_name d.severity));
  (match d.file with
  | Some f -> field "file" (Printf.sprintf "\"%s\"" (json_escape f))
  | None -> ());
  (match d.span with
  | Some sp ->
      field "span"
        (Printf.sprintf
           "{\"line\":%d,\"col\":%d,\"end_line\":%d,\"end_col\":%d}" sp.line
           sp.col sp.end_line sp.end_col)
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "\"message\":\"%s\"}" (json_escape d.message));
  Buffer.contents buf

let list_to_json ds = "[" ^ String.concat "," (List.map to_json ds) ^ "]"
