let digest s = Digest.to_hex (Digest.string s)

let payload_failed payload =
  match Jsonl.parse payload with
  | Ok doc -> (
      match Jsonl.str "status" doc with
      | Some ("violations" | "failed") -> true
      | Some _ -> false
      | None -> true)
  | Error _ -> true

let record_failed (r : Journal.record) =
  match r.Journal.verdict with
  | Verdict.Done payload -> payload_failed payload
  | v -> Verdict.is_failure v

(* --- Generic structured-payload jobs ------------------------------------ *)

let serialize work () = Result.map Jsonl.to_string (work ())

let generic ?degraded ~id ~seed ~descr work =
  Pool.job ~id ~seed ~descr (serialize work)
    ?degraded:(Option.map serialize degraded)

(* --- Manifest jobs ----------------------------------------------------- *)

let via_string = function
  | Harness.Driver.Primary -> "primary"
  | Harness.Driver.Fallback f -> "fallback:" ^ f

let outcome_payload (o : Harness.Driver.outcome) =
  let fields =
    [
      ( "status",
        Jsonl.String
          (if o.Harness.Driver.violations = [] then "clean" else "violations")
      );
      ( "violations",
        Jsonl.List
          (List.map
             (fun d -> Jsonl.String d.Diag.code)
             o.Harness.Driver.violations) );
      ("sched", Jsonl.String (via_string o.Harness.Driver.sched_via));
      ( "bind",
        Jsonl.String
          (match o.Harness.Driver.bind_via with
          | Some v -> via_string v
          | None -> "none") );
      ("fault_applied", Jsonl.Bool o.Harness.Driver.fault_applied);
    ]
    @
    match o.Harness.Driver.schedule with
    | None -> []
    | Some s ->
        [
          ("cs", Jsonl.Int s.Core.Schedule.cs);
          ( "fus",
            Jsonl.Int
              (List.fold_left
                 (fun n (_, k) -> n + k)
                 0
                 (Core.Schedule.fu_counts s)) );
        ]
  in
  Jsonl.to_string (Jsonl.Obj fields)

let run_entry ~options (e : Manifest.entry) () =
  match Manifest.load_graph e.Manifest.e_spec with
  | Error d -> Error d
  | Ok g -> (
      let o = Harness.Driver.run ?fault:e.Manifest.e_fault ~options g in
      match o.Harness.Driver.stopped with
      | Some d -> Error d
      | None -> Ok (outcome_payload o))

let of_entry ~seed (e : Manifest.entry) =
  let descr = Manifest.descr e in
  (* The id folds in the DFG file's contents when the spec is a file, so
     editing an input invalidates stale journal records on resume. *)
  let content =
    if Sys.file_exists e.Manifest.e_spec then
      try Digest.to_hex (Digest.file e.Manifest.e_spec) with _ -> ""
    else ""
  in
  let id = digest (String.concat "|" [ "entry"; descr; content ]) in
  let degraded_options =
    { e.Manifest.e_options with Harness.Driver.baseline_only = true }
  in
  Pool.job ~id ~seed ~descr
    (run_entry ~options:e.Manifest.e_options e)
    ~degraded:(run_entry ~options:degraded_options e)

let summarize records =
  let buf = Buffer.create 256 in
  let counts = Hashtbl.create 8 in
  let bump k = Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  List.iter
    (fun (r : Journal.record) ->
      let status =
        match r.Journal.verdict with
        | Verdict.Done payload when payload_failed payload -> "violations"
        | v -> Verdict.label v
      in
      bump (if record_failed r then "failed" else "completed");
      Printf.bprintf buf "#%d %s: %s%s\n" (r.Journal.seed + 1) r.Journal.descr
        (match r.Journal.verdict with
        | Verdict.Done _ -> status
        | v -> Verdict.describe v)
        (if r.Journal.attempt > 1 then " (after retry)" else ""))
    records;
  let n k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Printf.bprintf buf "batch: %d job(s) — %d completed, %d failed\n"
    (List.length records) (n "completed") (n "failed");
  Buffer.contents buf

(* --- Fuzz jobs --------------------------------------------------------- *)

let classified_payload (c : Harness.Fuzz.classified) =
  let fields =
    match c with
    | Harness.Fuzz.C_clean { c_degraded } ->
        [ ("status", Jsonl.String "clean");
          ("degraded", Jsonl.Bool c_degraded) ]
    | Harness.Fuzz.C_stopped code ->
        [ ("status", Jsonl.String "stopped"); ("code", Jsonl.String code) ]
    | Harness.Fuzz.C_skipped -> [ ("status", Jsonl.String "skipped") ]
    | Harness.Fuzz.C_failed f ->
        [
          ("status", Jsonl.String "failed");
          ("kind", Jsonl.String f.Harness.Fuzz.f_kind);
          ("fseed", Jsonl.Int f.Harness.Fuzz.f_seed);
          ("detail", Jsonl.String f.Harness.Fuzz.f_detail);
          ("size", Jsonl.Int f.Harness.Fuzz.f_size);
        ]
        @
        (match f.Harness.Fuzz.f_file with
        | Some p -> [ ("file", Jsonl.String p) ]
        | None -> [])
  in
  Jsonl.to_string (Jsonl.Obj fields)

let classified_of_payload ~seed payload =
  match Jsonl.parse payload with
  | Error _ ->
      Harness.Fuzz.C_failed
        { f_kind = "crash:payload"; f_seed = seed;
          f_detail = "unparsable worker payload"; f_size = 0; f_file = None }
  | Ok doc -> (
      match Jsonl.str "status" doc with
      | Some "clean" ->
          Harness.Fuzz.C_clean
            {
              c_degraded =
                (match Jsonl.member "degraded" doc with
                | Some (Jsonl.Bool b) -> b
                | _ -> false);
            }
      | Some "stopped" ->
          Harness.Fuzz.C_stopped
            (Option.value ~default:"?" (Jsonl.str "code" doc))
      | Some "skipped" -> Harness.Fuzz.C_skipped
      | Some "failed" ->
          Harness.Fuzz.C_failed
            {
              f_kind = Option.value ~default:"?" (Jsonl.str "kind" doc);
              f_seed = Option.value ~default:seed (Jsonl.int "fseed" doc);
              f_detail = Option.value ~default:"" (Jsonl.str "detail" doc);
              f_size = Option.value ~default:0 (Jsonl.int "size" doc);
              f_file = Jsonl.str "file" doc;
            }
      | _ ->
          Harness.Fuzz.C_failed
            { f_kind = "crash:payload"; f_seed = seed;
              f_detail = "worker payload has no status"; f_size = 0;
              f_file = None })

let degrade_generated (g : Harness.Fuzz.generated) =
  {
    g with
    Harness.Fuzz.g_case =
      Result.map
        (fun (c : Harness.Fuzz.case) ->
          {
            c with
            Harness.Fuzz.options =
              { c.Harness.Fuzz.options with Harness.Driver.baseline_only = true };
          })
        g.Harness.Fuzz.g_case;
  }

let fuzz_jobs ?fault ?corpus_dir ~campaign_seed generated =
  List.map
    (fun (g : Harness.Fuzz.generated) ->
      let case_src =
        match g.Harness.Fuzz.g_case with
        | Error d -> "generator-error:" ^ d.Diag.code
        | Ok c -> (
            Harness.Driver.options_to_flags c.Harness.Fuzz.options
            ^ "|"
            ^
            match Harness.Fuzz.graph_of_case c with
            | Ok gr -> Dfg.Parser.to_source gr
            | Error _ -> "unbuildable")
      in
      let id =
        digest
          (String.concat "|"
             [
               "fuzz";
               string_of_int campaign_seed;
               string_of_int g.Harness.Fuzz.g_run;
               (match fault with
               | Some f -> Harness.Fault.to_string f
               | None -> "");
               case_src;
             ])
      in
      let descr =
        Printf.sprintf "fuzz run %d (seed %d)" g.Harness.Fuzz.g_run
          g.Harness.Fuzz.g_seed
      in
      (* The job seed is the case seed: monotone in the run index, so
         seed order IS run order, and verdict-level failures surface the
         same seed the sequential campaign reports. *)
      Pool.job ~id ~seed:g.Harness.Fuzz.g_seed ~descr
        (fun () ->
          Ok (classified_payload (Harness.Fuzz.execute ?fault ?corpus_dir g)))
        ~degraded:(fun () ->
          Ok
            (classified_payload
               (Harness.Fuzz.execute ?fault ?corpus_dir
                  (degrade_generated g)))))
    generated

let fuzz_report records =
  let ordered =
    List.sort
      (fun (a : Journal.record) b -> compare a.Journal.seed b.Journal.seed)
      records
  in
  Harness.Fuzz.report_of_classified
    (List.map
       (fun (r : Journal.record) ->
         match r.Journal.verdict with
         | Verdict.Done payload ->
             classified_of_payload ~seed:r.Journal.seed payload
         | Verdict.Rejected d ->
             Harness.Fuzz.C_failed
               { f_kind = "crash:worker"; f_seed = r.Journal.seed;
                 f_detail = Diag.to_string d; f_size = 0; f_file = None }
         | Verdict.Timeout ->
             Harness.Fuzz.C_failed
               { f_kind = "timeout"; f_seed = r.Journal.seed;
                 f_detail = "worker SIGKILLed at its wall-clock deadline";
                 f_size = 0; f_file = None }
         | Verdict.Oom ->
             Harness.Fuzz.C_failed
               { f_kind = "oom"; f_seed = r.Journal.seed;
                 f_detail = "worker aborted at the heap ceiling"; f_size = 0;
                 f_file = None }
         | Verdict.Crashed c ->
             Harness.Fuzz.C_failed
               {
                 f_kind =
                   (match c with
                   | Verdict.Signal s -> "crash:" ^ s
                   | Verdict.Exit n -> Printf.sprintf "crash:exit-%d" n);
                 f_seed = r.Journal.seed;
                 f_detail = Verdict.describe r.Journal.verdict;
                 f_size = 0;
                 f_file = None;
               })
       ordered)
