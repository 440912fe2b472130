(* The repository's benchmark: one workload per run.

     main.exe --workload paper-suite|dag-ladder|serve-mix --seed N
              --seconds S --trace 0|1

   Every operation's output is checked; a failed check is counted and the
   run goes on. The last line of stdout is one JSON object with the
   end-to-end metrics ([--trace 0]) or the per-layer ones ([--trace 1]),
   named and ordered as in BENCHMARK.json. A traced run also writes its
   spans to .perfbench/trace-WORKLOAD-SEED.json (Chrome trace-event JSON,
   for Perfetto). Diagnostics go to stderr. *)

module J = Batch.Jsonl

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-suite|dag-ladder|serve-mix --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let seconds = float_of_string_opt (get "seconds") in
  match (seconds, int "trace") with
  | Some s, (0 | 1 as t) when s > 0. -> (workload, int "seed", s, t = 1)
  | _ -> usage ()

(* Metric names and units, from the definitions the driver also reads. *)
let metric_defs key =
  let doc =
    match J.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match J.member key doc with
  | Some (J.List ms) ->
      List.filter_map
        (fun m ->
          match (J.str "name" m, J.str "unit" m) with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let () =
  (match Sys.argv with
  | [| _; "--serve-daemon"; socket |] -> Serve_mix.daemon_main socket
  | _ -> ());
  let workload, seed, seconds, trace = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let defs = metric_defs (if trace then "per_layer" else "end_to_end") in
  let report : Compile.report =
    Serve_mix.guard (fun () ->
        match workload with
        | "paper-suite" ->
            Compile.measure ~inputs:Compile.paper_suite ~ladder:false ~seed
              ~seconds ~trace
        | "dag-ladder" ->
            Compile.measure ~inputs:Compile.dag_ladder ~ladder:true ~seed
              ~seconds ~trace
        | "serve-mix" -> Serve_mix.measure ~seed ~seconds ~trace
        | w ->
            prerr_endline ("unknown workload " ^ w);
            exit 2)
  in
  let failed = List.length report.failures in
  let attempted = max 1 report.attempted in
  List.iteri
    (fun i m -> if i < 20 then prerr_endline ("FAILED " ^ m))
    report.failures;
  let measured =
    ("ok_share", float_of_int (attempted - failed) /. float_of_int attempted)
    :: ("fail_share", float_of_int failed /. float_of_int attempted)
    :: (report.e2e @ report.layers)
  in
  if trace then begin
    (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Printf.sprintf ".perfbench/trace-%s-%d.json" workload seed in
    Span.write path;
    prerr_endline ("trace written to " ^ path)
  end;
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name measured with
          | Some v -> v
          | None when trace -> 0. (* layer not exercised by this workload *)
          | None -> failwith ("end-to-end metric not measured: " ^ name)
        in
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Diag.json_string name)
          (number v) (Diag.json_string unit))
      defs
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed (String.concat ", " metrics)
