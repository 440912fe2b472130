let test name f = Alcotest.test_case name `Quick f

let budgets = { Harness.Driver.stage_seconds = 30.0; sim_runs = 4 }

let tmp_path name =
  let dir = Filename.get_temp_dir_name () in
  Filename.concat dir
    (Printf.sprintf "mfs-batch-%d-%s" (Unix.getpid ()) name)

let ok_job ?degraded id =
  Batch.Pool.job ?degraded ~id:("job-" ^ id) ~seed:(int_of_string id)
    ~descr:("job " ^ id)
    (fun () -> Ok (Printf.sprintf "{\"n\":%s}" id))

(* --- diag: the new Partial category ------------------------------------ *)

let partial_category () =
  let d = Diag.partial "3 of 20 job(s) failed" in
  Alcotest.(check int) "exit code 6" 6 (Diag.exit_code d);
  Alcotest.(check string) "code" "batch.partial-failure" d.Diag.code;
  Alcotest.(check string) "category name" "partial"
    (Diag.category_name d.Diag.category);
  Alcotest.(check bool) "name round-trips" true
    (Diag.category_of_name "partial" = Some Diag.Partial);
  Alcotest.(check bool) "not a bug" false (Diag.is_bug d)

(* --- jsonl -------------------------------------------------------------- *)

let jsonl_roundtrip () =
  let doc =
    Batch.Jsonl.Obj
      [
        ("s", Batch.Jsonl.String "a \"quoted\"\nline");
        ("i", Batch.Jsonl.Int (-42));
        ("f", Batch.Jsonl.Float 1.5);
        ("b", Batch.Jsonl.Bool true);
        ("n", Batch.Jsonl.Null);
        ("l", Batch.Jsonl.List [ Batch.Jsonl.Int 1; Batch.Jsonl.String "x" ]);
      ]
  in
  (match Batch.Jsonl.parse (Batch.Jsonl.to_string doc) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok doc' ->
      Alcotest.(check bool) "round-trips" true (doc = doc');
      Alcotest.(check (option string)) "string member"
        (Some "a \"quoted\"\nline")
        (Batch.Jsonl.str "s" doc');
      Alcotest.(check (option int)) "int member" (Some (-42))
        (Batch.Jsonl.int "i" doc'));
  (match Batch.Jsonl.parse "{\"a\":1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  match Batch.Jsonl.parse "{\"a\":" with
  | Ok _ -> Alcotest.fail "truncated object accepted"
  | Error _ -> ()

(* --- verdict ------------------------------------------------------------ *)

let verdict_fields_roundtrip () =
  List.iter
    (fun v ->
      let doc = Batch.Jsonl.Obj (Batch.Verdict.to_fields v) in
      match Batch.Verdict.of_fields doc with
      | Error e ->
          Alcotest.failf "%s: of_fields failed: %s" (Batch.Verdict.label v) e
      | Ok v' ->
          Alcotest.(check bool)
            (Batch.Verdict.label v ^ " round-trips")
            true
            (Batch.Verdict.equal v v'))
    [
      Batch.Verdict.Done "{\"status\":\"clean\"}";
      Batch.Verdict.Rejected (Diag.input ~code:"io.no-such-input" "nope");
      Batch.Verdict.Timeout;
      Batch.Verdict.Oom;
      Batch.Verdict.Crashed (Batch.Verdict.Signal "SIGSEGV");
      Batch.Verdict.Crashed (Batch.Verdict.Exit 3);
    ]

(* --- journal ------------------------------------------------------------ *)

let record ?(attempt = 1) ?(final = true) ~id ~seed verdict =
  {
    Batch.Journal.id;
    seed;
    descr = "job " ^ id;
    attempt;
    final;
    verdict;
    seconds = 0.25;
  }

let journal_roundtrip_and_torn_line () =
  let path = tmp_path "torn.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let w = Helpers.check_okd "open" (Batch.Journal.open_writer path) in
  let r1 = record ~id:"a" ~seed:0 (Batch.Verdict.Done "{}") in
  let r2 =
    record ~id:"b" ~seed:1 ~final:false Batch.Verdict.Timeout ~attempt:1
  in
  Helpers.check_okd "append r1" (Batch.Journal.append w r1);
  Helpers.check_okd "append r2" (Batch.Journal.append w r2);
  Batch.Journal.close w;
  (* Simulate a SIGKILL mid-append: a torn record with no newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"id\":\"c\",\"seed\":2,\"at";
  close_out oc;
  (match Batch.Journal.load path with
  | Error d -> Alcotest.failf "load failed: %s" (Diag.to_string d)
  | Ok rs ->
      Alcotest.(check int) "torn trailing line dropped" 2 (List.length rs);
      Alcotest.(check bool) "records survive" true
        (List.map (fun r -> r.Batch.Journal.id) rs = [ "a"; "b" ]
        && List.for_all2
             (fun a b ->
               Batch.Verdict.equal a.Batch.Journal.verdict
                 b.Batch.Journal.verdict)
             rs [ r1; r2 ]));
  (* A corrupt line in the middle is a real error, not silently skipped. *)
  let oc = open_out path in
  output_string oc (Batch.Journal.record_to_json r1 ^ "\n");
  output_string oc "not json at all\n";
  output_string oc (Batch.Journal.record_to_json r2 ^ "\n");
  close_out oc;
  (match Batch.Journal.load path with
  | Ok _ -> Alcotest.fail "corrupt middle line accepted"
  | Error d ->
      Alcotest.(check string) "journal code" "batch.journal" d.Diag.code);
  Sys.remove path

(* The record after a torn line starts a line of its own: the writer cuts
   the torn tail when it opens, instead of appending onto it and turning
   it into a corrupt middle line. *)
let journal_torn_tail_cut_on_open () =
  let path = tmp_path "torn-reopen.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let append rs =
    let w = Helpers.check_okd "open" (Batch.Journal.open_writer path) in
    List.iter
      (fun r -> Helpers.check_okd "append" (Batch.Journal.append w r))
      rs;
    Batch.Journal.close w
  in
  append
    [
      record ~id:"a" ~seed:0 (Batch.Verdict.Done "{}");
      record ~id:"b" ~seed:1 Batch.Verdict.Timeout;
    ];
  Helpers.tear_last_line path;
  append [ record ~id:"c" ~seed:2 Batch.Verdict.Oom ];
  let rs = Helpers.check_okd "load" (Batch.Journal.load path) in
  Alcotest.(check (list string)) "first and third records" [ "a"; "c" ]
    (List.map (fun r -> r.Batch.Journal.id) rs);
  Sys.remove path

(* A path that cannot be opened or read is a typed error, not an
   exception: the -write code for appending, the store's code for
   reading. *)
let journal_unusable_path_is_typed () =
  let dir = Filename.get_temp_dir_name () in
  let code = function Ok _ -> "ok" | Error (d : Diag.t) -> d.Diag.code in
  Alcotest.(check string) "open a directory" "batch.journal-write"
    (code (Batch.Journal.open_writer dir));
  Alcotest.(check string) "load a directory" "batch.journal"
    (code (Batch.Journal.load dir))

let journal_equivalence () =
  let a =
    [
      record ~id:"a" ~seed:0 (Batch.Verdict.Done "{\"n\":1}");
      record ~id:"b" ~seed:1 ~final:false Batch.Verdict.Timeout;
      record ~id:"b" ~seed:1 ~attempt:2 Batch.Verdict.Timeout;
    ]
  in
  (* Same finals, different order, no intermediate attempt. *)
  let b =
    [
      record ~id:"b" ~seed:1 ~attempt:2 Batch.Verdict.Timeout;
      record ~id:"a" ~seed:0 (Batch.Verdict.Done "{\"n\":1}");
    ]
  in
  Alcotest.(check bool) "order and attempts ignored" true
    (Batch.Journal.equivalent a b);
  let c = [ record ~id:"a" ~seed:0 (Batch.Verdict.Done "{\"n\":2}") ] in
  Alcotest.(check bool) "different payload differs" false
    (Batch.Journal.equivalent a c)

(* --- pool --------------------------------------------------------------- *)

let check_run = function
  | Ok o -> o
  | Error d -> Alcotest.failf "pool refused to run: %s" (Diag.to_string d)

let pool_submission_order () =
  let jobs = List.init 6 (fun i -> ok_job (string_of_int i)) in
  let o =
    check_run
      (Batch.Pool.run ~workers:3 ~retry:Batch.Retry.none ~deadline:20.0 jobs)
  in
  Alcotest.(check int) "all jobs reported" 6
    (List.length o.Batch.Pool.records);
  Alcotest.(check bool) "not interrupted" false o.Batch.Pool.interrupted;
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "record %d in submission order" i)
        ("job-" ^ string_of_int i)
        r.Batch.Journal.id;
      match r.Batch.Journal.verdict with
      | Batch.Verdict.Done payload ->
          Alcotest.(check string) "payload" (Printf.sprintf "{\"n\":%d}" i)
            payload
      | v -> Alcotest.failf "job %d: %s" i (Batch.Verdict.describe v))
    o.Batch.Pool.records

(* The acceptance-criteria containment proof: >= 20 jobs, one hangs, one
   segfaults; every other job completes and the two faulty ones are
   classified as timeout / crashed. *)
let pool_containment () =
  let jobs =
    List.init 20 (fun i ->
        if i = 5 then
          Batch.Pool.job ~id:"hang" ~seed:i ~descr:"hanging job" (fun () ->
              Harness.Fault.hang ())
        else if i = 11 then
          Batch.Pool.job ~id:"segv" ~seed:i ~descr:"crashing job" (fun () ->
              Harness.Fault.segv ())
        else ok_job (string_of_int i))
  in
  let o =
    check_run
      (Batch.Pool.run ~workers:4 ~retry:Batch.Retry.none ~deadline:1.0 jobs)
  in
  Alcotest.(check int) "every job has a verdict" 20
    (List.length o.Batch.Pool.records);
  List.iter
    (fun r ->
      match (r.Batch.Journal.id, r.Batch.Journal.verdict) with
      | "hang", Batch.Verdict.Timeout -> ()
      | "hang", v ->
          Alcotest.failf "hang classified as %s" (Batch.Verdict.describe v)
      | "segv", Batch.Verdict.Crashed (Batch.Verdict.Signal _) -> ()
      | "segv", v ->
          Alcotest.failf "segv classified as %s" (Batch.Verdict.describe v)
      | id, Batch.Verdict.Done _ ->
          Alcotest.(check bool) (id ^ " done") true true
      | id, v ->
          Alcotest.failf "%s did not survive its neighbours: %s" id
            (Batch.Verdict.describe v))
    o.Batch.Pool.records

(* Satellite: Driver.over_budget is advisory; an in-stage hang is only
   stopped by the pool's hard watchdog. *)
let driver_hang_is_killed_by_watchdog () =
  let job =
    Batch.Pool.job ~id:"driver-hang" ~seed:0 ~descr:"driver under hang fault"
      (fun () ->
        let g = Workloads.Classic.diffeq () in
        let o = Harness.Driver.run ~fault:Harness.Fault.Hang ~budgets g in
        (* Unreachable: the hang spins inside a stage forever. *)
        ignore o;
        Ok "{}")
  in
  let o =
    check_run
      (Batch.Pool.run ~retry:Batch.Retry.none ~deadline:0.8 [ job ])
  in
  match (List.hd o.Batch.Pool.records).Batch.Journal.verdict with
  | Batch.Verdict.Timeout -> ()
  | v -> Alcotest.failf "expected timeout, got %s" (Batch.Verdict.describe v)

let pool_oom_ceiling () =
  let job =
    Batch.Pool.job ~id:"oom" ~seed:0 ~descr:"allocating job" (fun () ->
        let rec grow acc = grow (Array.make 4096 0 :: acc) in
        grow [])
  in
  let o =
    check_run
      (Batch.Pool.run ~retry:Batch.Retry.none ~heap_words:2_000_000
         ~deadline:30.0 [ job ])
  in
  match (List.hd o.Batch.Pool.records).Batch.Journal.verdict with
  | Batch.Verdict.Oom -> ()
  | v -> Alcotest.failf "expected oom, got %s" (Batch.Verdict.describe v)

let retry_runs_degraded_closure () =
  let path = tmp_path "retry.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let job =
    Batch.Pool.job ~id:"straggler" ~seed:0 ~descr:"hangs, then degrades"
      ~degraded:(fun () -> Ok "{\"recovered\":true}")
      (fun () -> Harness.Fault.hang ())
  in
  let o =
    check_run
      (Batch.Pool.run ~retry:Batch.Retry.default ~journal:path ~deadline:0.8
         [ job ])
  in
  (match (List.hd o.Batch.Pool.records).Batch.Journal.verdict with
  | Batch.Verdict.Done "{\"recovered\":true}" -> ()
  | v -> Alcotest.failf "expected recovery, got %s" (Batch.Verdict.describe v));
  Alcotest.(check int) "final record is the retry" 2
    (List.hd o.Batch.Pool.records).Batch.Journal.attempt;
  (* The journal keeps both attempts: a non-final timeout, then the
     recovered retry. *)
  (match Batch.Journal.load path with
  | Error d -> Alcotest.failf "journal: %s" (Diag.to_string d)
  | Ok rs ->
      Alcotest.(check (list bool)) "attempt finality" [ false; true ]
        (List.map (fun r -> r.Batch.Journal.final) rs);
      Alcotest.(check bool) "first attempt timed out" true
        (Batch.Verdict.equal (List.hd rs).Batch.Journal.verdict
           Batch.Verdict.Timeout));
  Sys.remove path

(* Satellite: run a batch, SIGKILL the whole pool mid-flight, resume, and
   end up with a journal equivalent to an uninterrupted run's. *)
let resume_after_sigkill () =
  let journal = tmp_path "resume.jsonl" in
  let reference = tmp_path "reference.jsonl" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ journal; reference ];
  let jobs =
    List.init 8 (fun i ->
        Batch.Pool.job ~id:("slow-" ^ string_of_int i) ~seed:i
          ~descr:("slow job " ^ string_of_int i)
          (fun () ->
            Unix.sleepf 0.15;
            Ok (Printf.sprintf "{\"n\":%d}" i)))
  in
  (match Unix.fork () with
  | 0 ->
      (* The pool under test, in its own process so we can SIGKILL it. *)
      ignore
        (Batch.Pool.run ~workers:2 ~retry:Batch.Retry.none ~journal
           ~deadline:20.0 jobs);
      Unix._exit 0
  | pid ->
      Unix.sleepf 0.5;
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid));
  let survivors =
    match Batch.Journal.load journal with
    | Ok rs -> rs
    | Error d -> Alcotest.failf "journal after SIGKILL: %s" (Diag.to_string d)
  in
  Alcotest.(check bool) "some jobs were journalled before the kill" true
    (survivors <> []);
  Alcotest.(check bool) "the kill landed mid-flight" true
    (List.length survivors < 8);
  let o =
    check_run
      (Batch.Pool.run ~workers:2 ~retry:Batch.Retry.none ~journal ~resume:true
         ~deadline:20.0 jobs)
  in
  Alcotest.(check int) "completed jobs were skipped"
    (List.length survivors) o.Batch.Pool.resumed;
  Alcotest.(check int) "every job has a final verdict" 8
    (List.length o.Batch.Pool.records);
  ignore
    (check_run
       (Batch.Pool.run ~workers:2 ~retry:Batch.Retry.none ~journal:reference
          ~deadline:20.0 jobs));
  (match (Batch.Journal.load journal, Batch.Journal.load reference) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "resumed journal == uninterrupted journal" true
        (Batch.Journal.equivalent a b)
  | Error d, _ | _, Error d -> Alcotest.failf "%s" (Diag.to_string d));
  List.iter Sys.remove [ journal; reference ]

let write_file path s =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc s);
  Sys.rename tmp path

(* A process that exists only as a zombie awaiting its adopter's reap
   counts as gone. *)
let process_gone pid =
  match Unix.kill pid 0 with
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
  | exception Unix.Unix_error _ -> false
  | () -> (
      match
        In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
          In_channel.input_all
      with
      | stat -> (
          match String.rindex_opt stat ')' with
          | Some i -> i + 2 < String.length stat && stat.[i + 2] = 'Z'
          | None -> false)
      | exception Sys_error _ -> false)

(* Every forked worker leaves through _exit. With SIGPIPE ignored, a
   worker that outlives its supervisor fails its result write with EPIPE;
   that error must not unwind into the worker's forked copy of the
   supervisor and run on as one. *)
let orphaned_worker_exits () =
  let marker = tmp_path "orphan-escaped" in
  let pidfile = tmp_path "orphan.pid" in
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ marker; pidfile ]
  in
  cleanup ();
  let sleep = 0.5 in
  let job =
    Batch.Pool.job ~id:"orphan" ~seed:0 ~descr:"outlives its supervisor"
      (fun () ->
        write_file pidfile (string_of_int (Unix.getpid ()));
        Unix.sleepf sleep;
        Ok "{}")
  in
  let supervisor =
    match Unix.fork () with
    | 0 ->
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        (try
           ignore
             (Batch.Pool.run ~retry:Batch.Retry.none ~deadline:20.0 [ job ])
         with _ -> write_file marker "escaped");
        Unix._exit 0
    | pid -> pid
  in
  let rec await_worker tries =
    match In_channel.with_open_bin pidfile In_channel.input_all with
    | s -> int_of_string s
    | exception Sys_error _ when tries > 0 ->
        Unix.sleepf 0.01;
        await_worker (tries - 1)
  in
  let worker = await_worker 500 in
  let gone_by = Unix.gettimeofday () +. sleep +. 1.0 in
  Unix.kill supervisor Sys.sigkill;
  ignore (Unix.waitpid [] supervisor);
  while (not (process_gone worker)) && Unix.gettimeofday () < gone_by do
    Unix.sleepf 0.02
  done;
  let gone = process_gone worker in
  if not gone then
    (try Unix.kill worker Sys.sigkill with Unix.Unix_error _ -> ());
  Alcotest.(check bool) "orphan gone within its sleep + 1s" true gone;
  Alcotest.(check bool) "orphan never returned into the pool's caller" false
    (Sys.file_exists marker);
  cleanup ()

(* --- pooled fuzz -------------------------------------------------------- *)

(* Satellite: campaign summaries are independent of the worker count —
   the sequential campaign and a 3-worker pool produce the same report. *)
let pooled_fuzz_matches_sequential () =
  let runs = 15 and seed = 3 in
  let sequential = Harness.Fuzz.campaign ~budgets ~runs ~seed () in
  let generated = Harness.Fuzz.cases ~runs ~seed () in
  let pool_jobs =
    Batch.Jobs.fuzz_jobs ~budgets ~campaign_seed:seed generated
  in
  let o =
    check_run
      (Batch.Pool.run ~workers:3 ~retry:Batch.Retry.none ~deadline:30.0
         pool_jobs)
  in
  let pooled = Batch.Jobs.fuzz_report o.Batch.Pool.records in
  Alcotest.(check bool) "identical reports" true (sequential = pooled);
  Alcotest.(check string) "identical renderings"
    (Harness.Fuzz.render_report sequential)
    (Harness.Fuzz.render_report pooled)

(* --- manifest ----------------------------------------------------------- *)

let manifest_parsing () =
  let parse text = Batch.Manifest.parse_line ~file:"m.txt" ~line:3 text in
  (match parse "  # just a comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment line should parse to nothing");
  (match parse "diffeq --cs 4 --style 2 --limit '*=2' --inject hang # note" with
  | Ok (Some e) ->
      Alcotest.(check string) "spec" "diffeq" e.Batch.Manifest.e_spec;
      Alcotest.(check int) "cs" 4 e.Batch.Manifest.e_options.Harness.Driver.cs;
      Alcotest.(check bool) "style 2" true
        e.Batch.Manifest.e_options.Harness.Driver.style2;
      Alcotest.(check bool) "limit" true
        (e.Batch.Manifest.e_options.Harness.Driver.limits = [ ("*", 2) ]);
      Alcotest.(check bool) "fault" true
        (e.Batch.Manifest.e_fault = Some Harness.Fault.Hang);
      Alcotest.(check bool) "descr carries the fault" true
        (Helpers.contains ~sub:"--inject hang" (Batch.Manifest.descr e))
  | Ok None -> Alcotest.fail "job line ignored"
  | Error d -> Alcotest.failf "parse: %s" (Diag.to_string d));
  List.iter
    (fun bad ->
      match parse bad with
      | Error d ->
          Alcotest.(check string) (bad ^ ": code") "batch.manifest" d.Diag.code;
          Alcotest.(check bool) (bad ^ ": has span") true
            (d.Diag.span <> None)
      | Ok _ -> Alcotest.failf "%s: accepted" bad)
    [
      "diffeq --cs nope"; "diffeq --wat"; "diffeq --inject meteor";
      "diffeq --limit banana"; "diffeq --cs";
    ]

let suite =
  [
    test "diag: partial category exits 6" partial_category;
    test "jsonl: round-trip and malformed input" jsonl_roundtrip;
    test "verdict: journal fields round-trip" verdict_fields_roundtrip;
    test "journal: fsynced records survive a torn tail"
      journal_roundtrip_and_torn_line;
    test "journal: a torn tail is cut before the next append"
      journal_torn_tail_cut_on_open;
    test "journal: an unusable path is a typed error"
      journal_unusable_path_is_typed;
    test "journal: equivalence ignores order and retries" journal_equivalence;
    test "pool: records come back in submission order" pool_submission_order;
    test "pool: hang and segv are contained, 18 neighbours finish"
      pool_containment;
    test "pool: watchdog closes the advisory-budget gap"
      driver_hang_is_killed_by_watchdog;
    test "pool: heap ceiling aborts a runaway allocation" pool_oom_ceiling;
    test "pool: timeout retries once with the degraded closure"
      retry_runs_degraded_closure;
    test "pool: SIGKILL mid-flight, then --resume reproduces the journal"
      resume_after_sigkill;
    test "fuzz: pooled campaign report equals the sequential one"
      pooled_fuzz_matches_sequential;
    test "manifest: flags, faults, comments and malformed lines"
      manifest_parsing;
    test "pool: an orphaned worker exits instead of running on"
      orphaned_worker_exits;
  ]
