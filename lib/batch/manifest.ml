type entry = {
  e_line : int;
  e_spec : string;
  e_options : Harness.Driver.options;
  e_fault : Harness.Fault.t option;
}

let descr e =
  let flags = Harness.Driver.options_to_flags e.e_options in
  String.concat " "
    (List.filter
       (fun s -> s <> "")
       [
         e.e_spec; flags;
         (match e.e_fault with
         | Some f -> "--inject " ^ Harness.Fault.to_string f
         | None -> "");
       ])

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

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_line ~file ~line text =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Error
          (Diag.input ~code:"batch.manifest" ~file
             ~span:(Diag.point ~line ~col:1)
             msg))
      fmt
  in
  let words =
    String.split_on_char ' ' (strip_comment text)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> Ok None
  | spec :: flags ->
      let open Harness.Driver in
      let rec go o fault = function
        | [] -> Ok (Some { e_line = line; e_spec = spec; e_options = o; e_fault = fault })
        | "--two-cycle-mult" :: rest -> go { o with two_cycle = true } fault rest
        | "--pipelined-mult" :: rest -> go { o with pipelined = true } fault rest
        | "--cse" :: rest -> go { o with cse = true } fault rest
        | "--widths" :: rest -> go { o with widths = true } fault rest
        | "--baseline-only" :: rest -> go { o with baseline_only = true } fault rest
        | "--cs" :: v :: rest | "--steps" :: v :: rest -> (
            match int_of_string_opt v with
            | Some n -> go { o with cs = n } fault rest
            | None -> fail "--cs %s: expected an integer" v)
        | "--latency" :: v :: rest -> (
            match int_of_string_opt v with
            | Some n -> go { o with latency = Some n } fault rest
            | None -> fail "--latency %s: expected an integer" v)
        | "--clock" :: v :: rest | "--chain" :: v :: rest -> (
            match float_of_string_opt v with
            | Some f -> go { o with clock = Some f } fault rest
            | None -> fail "--clock %s: expected a number" v)
        | "--style" :: v :: rest -> (
            match v with
            | "1" -> go { o with style2 = false } fault rest
            | "2" -> go { o with style2 = true } fault rest
            | _ -> fail "--style %s: expected 1 or 2" v)
        | "--limit" :: v :: rest -> (
            (* Accept the CLI's quoting habit: --limit '*=2'. *)
            let v =
              let n = String.length v in
              if n >= 2 && v.[0] = '\'' && v.[n - 1] = '\'' then
                String.sub v 1 (n - 2)
              else v
            in
            match String.split_on_char '=' v with
            | [ c; k ] -> (
                match int_of_string_opt k with
                | Some k -> go { o with limits = o.limits @ [ (c, k) ] } fault rest
                | None -> fail "--limit %s: expected CLASS=COUNT" v)
            | _ -> fail "--limit %s: expected CLASS=COUNT" v)
        | "--inject" :: v :: rest -> (
            match Harness.Fault.of_string v with
            | Some f -> go o (Some f) rest
            | None ->
                fail "--inject %s: unknown fault (%s)" v
                  (String.concat ", " Harness.Fault.names))
        | [ flag ] when String.length flag > 2 && String.sub flag 0 2 = "--" ->
            fail "%s: missing value" flag
        | flag :: _ -> fail "%s: unknown manifest flag" flag
      in
      go default_options None flags

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
