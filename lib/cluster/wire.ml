module Jsonl = Batch.Jsonl

let bad msg = Diag.input ~code:"cluster.bad-wire" msg

let of_entry ~seed (e : Batch.Manifest.entry) =
  Jsonl.Obj
    [
      ("family", Jsonl.String "manifest");
      ("line", Jsonl.String (Batch.Manifest.descr e));
      ("seed", Jsonl.Int seed);
    ]

let manifest_job doc =
  let line = Option.value ~default:"" (Jsonl.str "line" doc) in
  let seed = Option.value ~default:0 (Jsonl.int "seed" doc) in
  if line = "" then Error (bad "manifest wire job is missing its line")
  else
    match Batch.Manifest.parse_line ~file:"<lease>" ~line:1 line with
    | Error d -> Error d
    | Ok None -> Error (bad "manifest wire job line is blank")
    | Ok (Some entry) -> Ok (Batch.Jobs.of_entry ~seed entry)

let to_job doc =
  match Jsonl.str "family" doc with
  | Some "manifest" -> manifest_job doc
  | Some "explore" ->
      Result.map_error bad (Explore.Lattice.job_of_wire doc)
  | Some other -> Error (bad (Printf.sprintf "unknown job family %S" other))
  | None -> Error (bad "wire job has no family")
