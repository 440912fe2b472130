type entry = {
  e_line : int;
  e_spec : string;
  e_options : Harness.Driver.options;
  e_fault : Harness.Fault.t option;
}

let descr e =
  let fault = Option.map (fun f -> "--inject " ^ Harness.Fault.to_string f) e.e_fault in
  String.concat " "
    (List.filter (( <> ) "")
       [ e.e_spec; Harness.Driver.options_to_flags e.e_options;
         Option.value ~default:"" fault ])

let load_graph spec =
  if Sys.file_exists spec then
    if Filename.check_suffix spec ".beh" then Dfg.Frontend.compile_file spec
    else Dfg.Parser.parse_file spec
  else
    match Workloads.Classic.by_name spec with
    | Some g -> Ok g
    | None ->
        Error
          (Diag.input ~code:"io.no-such-input"
             (Printf.sprintf
                "%s: no such file or built-in example (try ex1..ex6, diffeq, \
                 ewf, fir16, dct8, ar, tseng, chained, facet, cond)"
                spec))

let words line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse_line ~file ~line text =
  let diag msg =
    Diag.input ~code:"batch.manifest" ~file ~span:(Diag.point ~line ~col:1) msg
  in
  let fail fmt = Printf.ksprintf (fun msg -> Error (diag msg)) fmt in
  (* --inject is the manifest's own flag; the rest are the driver's. *)
  let rec split fault acc = function
    | "--inject" :: v :: rest -> (
        match Harness.Fault.of_string v with
        | Some f -> split (Some f) acc rest
        | None ->
            fail "--inject %s: unknown fault (%s)" v
              (String.concat ", " Harness.Fault.names))
    | w :: rest -> split fault (w :: acc) rest
    | [] -> Ok (fault, List.rev acc)
  in
  match words text with
  | [] -> Ok None
  | spec :: words ->
      Result.bind (split None [] words) (fun (e_fault, flags) ->
          Result.map
            (fun e_options ->
              Some { e_line = line; e_spec = spec; e_options; e_fault })
            (Harness.Driver.options_of_flags ~fail:diag flags))

let parse_file path =
  if not (Sys.file_exists path) then
    Error
      (Diag.input ~code:"batch.manifest"
         (path ^ ": no such manifest file"))
  else begin
    let ic = open_in path in
    let lines = In_channel.input_lines ic in
    close_in ic;
    let rec go acc lineno = function
      | [] ->
          if acc = [] then
            Error
              (Diag.input ~code:"batch.manifest" ~file:path
                 "manifest contains no jobs")
          else Ok (List.rev acc)
      | l :: rest -> (
          match parse_line ~file:path ~line:lineno l with
          | Error d -> Error d
          | Ok None -> go acc (lineno + 1) rest
          | Ok (Some e) -> go (e :: acc) (lineno + 1) rest)
    in
    go [] 1 lines
  end
