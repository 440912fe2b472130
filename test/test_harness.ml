let test name f = Alcotest.test_case name `Quick f

let driver_clean_on_diffeq () =
  let g = Workloads.Classic.diffeq () in
  let o = Harness.Driver.run g in
  Alcotest.(check bool) "no violations" true (o.Harness.Driver.violations = []);
  Alcotest.(check bool) "not stopped" true (o.Harness.Driver.stopped = None);
  Alcotest.(check bool) "primary scheduler" true
    (o.Harness.Driver.sched_via = Harness.Driver.Primary);
  Alcotest.(check bool) "primary binder" true
    (o.Harness.Driver.bind_via = Some Harness.Driver.Primary);
  Alcotest.(check bool) "schedule produced" true
    (o.Harness.Driver.schedule <> None)

let driver_stops_on_infeasible () =
  let g = Workloads.Classic.diffeq () in
  let options =
    { Harness.Driver.default_options with
      Harness.Driver.constr = Harness.Flow.Time 1 }
  in
  let o = Harness.Driver.run ~options g in
  (match o.Harness.Driver.stopped with
  | None -> Alcotest.fail "expected an early stop on cs=1"
  | Some d ->
      Alcotest.(check bool) "stop is not a bug" false (Diag.is_bug d));
  Alcotest.(check bool) "no violations" true (o.Harness.Driver.violations = [])

(* Under unit caps the binder runs under the caps the schedule was made
   with: diffeq with one multiplier needs 7 steps, and no step budget can
   veto that (the typed constraint holds caps or a budget, never both). *)
let driver_binds_under_limits () =
  let g = Workloads.Classic.diffeq () in
  let options =
    { Harness.Driver.default_options with
      Harness.Driver.constr = Harness.Flow.Resource [ ("*", 1) ] }
  in
  let o = Harness.Driver.run ~options g in
  Alcotest.(check (option string)) "not stopped" None
    (Option.map (fun d -> d.Diag.code) o.Harness.Driver.stopped);
  Alcotest.(check bool) "bound by MFSA" true
    (o.Harness.Driver.bind_via = Some Harness.Driver.Primary);
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun d -> d.Diag.code) o.Harness.Driver.violations)

let driver_style2_deadlock_under_limits () =
  let g = Workloads.Classic.diffeq () in
  let options =
    { Harness.Driver.default_options with
      Harness.Driver.style = Core.Mfsa.No_self_loop;
      constr = Harness.Flow.Resource [ ("*", 1) ] }
  in
  let o = Harness.Driver.run ~options g in
  Alcotest.(check (option string)) "stopped by the style-2 deadlock"
    (Some "mfsa.style2-deadlock")
    (Option.map (fun d -> d.Diag.code) o.Harness.Driver.stopped);
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun d -> d.Diag.code) o.Harness.Driver.violations)

let colbind_fallback_is_valid () =
  (* The MFSA fallback binding must produce a datapath that passes the
     structural checks and simulates against the golden model. *)
  List.iter
    (fun (name, g) ->
      let config = Core.Config.default in
      let lib = Celllib.Ncr.for_graph g in
      let cs = Dfg.Bounds.critical_path g + 1 in
      let s = Helpers.check_ok (name ^ " list") (Baselines.List_sched.time g ~cs) in
      let dp =
        Helpers.check_ok (name ^ " colbind")
          (Harness.Problem.colbind_datapath lib config g s)
      in
      let delay i =
        Core.Config.delay config (Dfg.Graph.node g i).Dfg.Graph.kind
      in
      (match Rtl.Check.datapath dp ~delay with
      | Ok () -> ()
      | Error errs ->
          Alcotest.failf "%s: fallback datapath invalid: %s" name
            (String.concat "; " (List.map Diag.to_string errs)));
      let ctrl =
        Rtl.Controller.make dp ~delay
      in
      match Sim.Equiv.check_random ~runs:5 dp ctrl with
      | Ok () -> ()
      | Error d -> Alcotest.failf "%s: %s" name (Diag.to_string d))
    (Workloads.Classic.all ())

(* A typed constraint is a budget or caps, so "--cs 7" is checked on the
   budget variant of the same options. *)
let options_flags_roundtrip () =
  let o =
    { Harness.Driver.constr = Harness.Flow.Resource [ ("*", 2) ];
      library = Harness.Problem.Two_cycle; latency = Some 3;
      clock = Some 40.0; style = Core.Mfsa.No_self_loop; cse = true;
      widths = true; baseline_only = true }
  in
  let flags = Harness.Driver.options_to_flags o in
  let budget_flags =
    Harness.Driver.options_to_flags
      { o with Harness.Driver.constr = Harness.Flow.Time 7 }
  in
  List.iter
    (fun (sub, flags) ->
      Alcotest.(check bool) ("flag " ^ sub) true (Helpers.contains ~sub flags))
    [ ("--cs 7", budget_flags); ("--limit '*=2'", flags);
      ("--two-cycle-mult", flags); ("--latency 3", flags);
      ("--clock 40", flags); ("--style 2", flags); ("--cse", flags);
      ("--widths", flags); ("--baseline-only", flags) ]

let campaign_clean () =
  (* A bounded campaign without injection: no crashes, no invariant
     violations. Expected infeasibilities are fine. *)
  let r = Harness.Fuzz.campaign ~runs:40 ~seed:0 () in
  Alcotest.(check int) "runs" 40 r.Harness.Fuzz.runs;
  Alcotest.(check (list string)) "no failures" []
    (List.map (fun f -> f.Harness.Fuzz.f_kind) r.Harness.Fuzz.failures);
  Alcotest.(check bool) "some runs complete cleanly" true
    (r.Harness.Fuzz.clean > 0)

let campaign_deterministic () =
  let run () =
    let r = Harness.Fuzz.campaign ~runs:15 ~seed:3 () in
    ( r.Harness.Fuzz.clean, r.Harness.Fuzz.infeasible, r.Harness.Fuzz.degraded,
      List.map (fun f -> f.Harness.Fuzz.f_kind) r.Harness.Fuzz.failures )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same campaign twice" true (a = b)

let injected_faults_detected () =
  (* Every injector must be caught by a cross-stage invariant on at least
     one run, never survive unnoticed, and shrink to a tiny reproducer. *)
  List.iter
    (fun fault ->
      let name = Harness.Fault.to_string fault in
      let r = Harness.Fuzz.campaign ~fault ~runs:25 ~seed:1 () in
      let detected, missed =
        List.partition
          (fun f ->
            Helpers.contains ~sub:"violation:" f.Harness.Fuzz.f_kind)
          r.Harness.Fuzz.failures
      in
      Alcotest.(check (list string)) (name ^ ": no missed faults") []
        (List.map (fun f -> f.Harness.Fuzz.f_kind) missed);
      Alcotest.(check bool) (name ^ ": detected at least once") true
        (detected <> []);
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: reproducer has <= 8 ops (got %d)" name
               f.Harness.Fuzz.f_size)
            true (f.Harness.Fuzz.f_size <= 8))
        detected)
    Harness.Fault.all

let shrink_drops_irrelevant_rows () =
  (* Oracle: "the case still contains a multiplication". Everything else
     must shrink away, and references must stay valid. *)
  let g = Workloads.Classic.diffeq () in
  let case = Harness.Fuzz.case_of_graph Harness.Driver.default_options g in
  let oracle c =
    List.exists (fun (_, k, _, _) -> k = Dfg.Op.Mul) c.Harness.Fuzz.rows
  in
  let small = Harness.Fuzz.shrink ~oracle ~max_attempts:500 case in
  Alcotest.(check int) "one row left" 1 (Harness.Fuzz.case_size small);
  match Harness.Fuzz.graph_of_case small with
  | Ok g' -> Alcotest.(check int) "still builds" 1 (Dfg.Graph.num_nodes g')
  | Error d ->
      Alcotest.failf "shrunk case no longer builds: %s" (Diag.to_string d)

let reproducer_file () =
  let g = Workloads.Classic.diffeq () in
  let case = Harness.Fuzz.case_of_graph Harness.Driver.default_options g in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "mfs-fuzz-test" in
  let path =
    Harness.Fuzz.write_reproducer ~dir ~seed:42 ~kind:"violation:test"
      ~fault:Harness.Fault.Corrupt_start case
  in
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("header " ^ sub) true (Helpers.contains ~sub body))
    [ "# synth fuzz reproducer"; "# failure: violation:test"; "# seed: 42";
      "# fault: corrupt-start"; "input" ];
  (* The body after the headers must parse back. *)
  let lines = String.split_on_char '\n' body in
  let dfg =
    String.concat "\n" (List.filter (fun l -> not (String.length l > 0 && l.[0] = '#')) lines)
  in
  ignore (Helpers.check_ok "reproducer parses" (Dfg.Parser.parse dfg))

let suite =
  [
    test "driver: clean diffeq end to end" driver_clean_on_diffeq;
    test "driver: infeasible budget stops, not a bug" driver_stops_on_infeasible;
    test "driver: MFSA binds under --limit caps" driver_binds_under_limits;
    test "driver: style-2 deadlock under caps stops, not a bug"
      driver_style2_deadlock_under_limits;
    test "driver: colbind fallback datapaths are valid" colbind_fallback_is_valid;
    test "driver: options render as synth flags" options_flags_roundtrip;
    test "fuzz: bounded campaign is clean" campaign_clean;
    test "fuzz: campaigns are deterministic in the seed" campaign_deterministic;
    test "fuzz: every injected fault is caught and shrunk" injected_faults_detected;
    test "fuzz: shrinking reaches a minimal case" shrink_drops_irrelevant_rows;
    test "fuzz: reproducer files carry flags and parse back" reproducer_file;
  ]
