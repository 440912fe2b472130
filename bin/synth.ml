(* Command-line front end: schedule and allocate DFGs from files or the
   built-in benchmark set.

     synth show   <dfg>                 inspect a graph
     synth mfs    <dfg> --cs 8          Move Frame Scheduling
     synth mfsa   <dfg> --cs 8 --style 2   mixed scheduling-allocation
     synth compare <dfg> --cs 8         MFS vs the baseline schedulers
     synth explore sweep.spec --jobs 4  Pareto sweep over a job lattice
     synth fuzz   --runs 200 --seed 0   randomized robustness campaign
     synth batch  jobs.txt --jobs 4     supervised batch over a manifest
     synth serve  --socket synth.sock   crash-safe synthesis daemon
     synth bombard --socket synth.sock  load-test a running daemon

   <dfg> is a file in the textual DFG format (see Dfg.Parser) or the name of
   a built-in example (ex1..ex6, diffeq, ewf, ...).

   Exit codes: 0 success, 2 usage, 3 bad input, 4 infeasible constraints,
   5 internal error / defects found, 6 partial batch failure (the batch ran
   to completion but some jobs failed), 7 service unavailable (daemon
   overloaded or draining), 130 interrupted. Diagnostics go to stderr, as
   text or as JSON with --json-errors. *)

open Cmdliner
module Problem = Harness.Problem
module Flow = Harness.Flow
module Setting = Harness.Setting

let load_graph = Batch.Manifest.load_graph

let die ~json d =
  flush stdout;
  prerr_endline (if json then Diag.to_json d else "error: " ^ Diag.to_string d);
  exit (Diag.exit_code d)

let or_die ~json = function Ok v -> v | Error d -> die ~json d

(* The input graph, through CSE when asked. *)
let load_input ~json ~cse spec =
  let g = or_die ~json (load_graph spec) in
  if cse then or_die ~json (Dfg.Cse.run g) else g

(* Process faults take the calling process down; only a supervised batch
   worker can contain them. *)
let reject_process_fault ~json ~cmd ~catcher = function
  | Some f when Harness.Fault.is_process f ->
      die ~json
        (Diag.usage ~code:(cmd ^ ".process-fault")
           (Printf.sprintf
              "--inject %s is a process fault: it takes the worker down \
               instead of corrupting an artefact %s could catch. Use \
               'synth batch' with a manifest fault to prove containment."
              (Harness.Fault.to_string f) catcher))
  | _ -> ()

let json_arg =
  let doc = "Report errors on stderr as JSON objects instead of text." in
  Arg.(value & flag & info [ "json-errors" ] ~doc)

let cse_arg =
  let doc = "Run common-subexpression elimination before synthesis." in
  Arg.(value & flag & info [ "cse" ] ~doc)

let graph_arg =
  let doc = "DFG file or built-in example name." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DFG" ~doc)

(* A job setting's converter: the text form, range rule and printer of
   Harness.Setting, so the CLI accepts exactly what a manifest, spec,
   serve request or wire job accepts. *)
let setting t =
  let parse s =
    Option.to_result (Setting.of_string t s)
      ~none:(`Msg (Printf.sprintf "invalid value '%s', expected %s" s
                     (Setting.expected t s)))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (Setting.to_string t v))

let cs_arg =
  let doc = "Time budget in control steps (0 = critical path)." in
  Arg.(value & opt (setting Setting.budget) 0 & info [ "cs"; "steps" ] ~docv:"N" ~doc)

(* The multiplier model; both flags mean the pipelined unit. *)
let library_arg =
  let two_cycle =
    let doc = "Multiplication and division take two control steps." in
    Arg.(value & flag & info [ "two-cycle-mult" ] ~doc)
  in
  let pipelined =
    let doc =
      "Run two-cycle multiplications on two-stage pipelined units (structural \
       pipelining)."
    in
    Arg.(value & flag & info [ "pipelined-mult" ] ~doc)
  in
  Term.(
    const (fun two_cycle pipelined -> Problem.library_of_flags ~two_cycle ~pipelined)
    $ two_cycle $ pipelined)

let latency_arg =
  let doc = "Functional-pipelining latency (loop folding)." in
  Arg.(value & opt (some (setting Setting.latency)) None
       & info [ "latency" ] ~docv:"L" ~doc)

let clock_arg =
  let doc = "Clock period in ns; enables operation chaining." in
  Arg.(value & opt (some (setting Setting.clock)) None
       & info [ "clock"; "chain" ] ~docv:"NS" ~doc)

let limits_arg =
  let doc =
    "Resource limits per FU class, e.g. --limit '*=2' --limit '+=1'. With \
     limits, MFS minimises control steps instead of units."
  in
  Arg.(value & opt_all (setting Setting.cap) []
       & info [ "limit" ] ~docv:"CLASS=COUNT" ~doc)

let style_arg =
  let doc = "RTL design style: 1 = unrestricted, 2 = no ALU self loop." in
  let style_conv =
    Arg.enum (List.map (fun s -> (Setting.(to_string style) s, s)) Setting.styles)
  in
  Arg.(
    value
    & opt style_conv Core.Mfsa.Unrestricted
    & info [ "style" ] ~docv:"1|2" ~doc)

let verilog_arg =
  let doc = "Emit structural Verilog for the synthesised design." in
  Arg.(value & flag & info [ "verilog" ] ~doc)

let simulate_arg =
  let doc = "Check the design against the golden model on random inputs." in
  Arg.(value & flag & info [ "simulate" ] ~doc)

let vcd_arg =
  let doc =
    "Execute one iteration on small deterministic inputs and dump the \
     waveform to $(docv) (VCD, viewable in GTKWave)."
  in
  Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc)

let netlist_arg =
  let doc = "Print the datapath netlist as Graphviz DOT." in
  Arg.(value & flag & info [ "dot-netlist" ] ~doc)

let fsm_arg =
  let doc = "Print the controller's FSM/microcode table ($(docv): binary, \
             one-hot, gray)." in
  let enc =
    Arg.enum
      [ ("binary", Rtl.Fsm.Binary); ("one-hot", Rtl.Fsm.One_hot);
        ("gray", Rtl.Fsm.Gray) ]
  in
  Arg.(value & opt (some enc) None & info [ "fsm" ] ~docv:"ENCODING" ~doc)

let widths_arg =
  let doc =
    "Width-aware mode: run the value-range/bitwidth analysis, scale \
     per-node chaining delays, price the datapath at inferred widths and \
     prove narrowing safe against the full-width golden model."
  in
  Arg.(value & flag & info [ "widths" ] ~doc)

let ports_arg =
  let doc =
    "Override every memory bank's port count (scheduling cap and port \
     binding). Without it, the graph's own 'mem BANK ports N' declarations \
     apply (default 1)."
  in
  Arg.(value & opt (some (setting Setting.ports)) None & info [ "ports" ] ~docv:"N" ~doc)

let fault_conv =
  let parse s =
    match Harness.Fault.of_string s with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg
             (Printf.sprintf "%s: unknown fault (%s)" s
                (String.concat ", " Harness.Fault.names)))
  in
  let print ppf f = Format.pp_print_string ppf (Harness.Fault.to_string f) in
  Arg.conv (parse, print)

(* The OCaml-heap ceiling of a --heap-mb flag; 0 disables it. *)
let heap_words heap_mb =
  if heap_mb <= 0 then None
  else Some (heap_mb * 1024 * 1024 / (Sys.word_size / 8))

let fu_string s =
  String.concat ", "
    (List.map
       (fun (c, k) -> Printf.sprintf "%d x %s" k c)
       (Core.Schedule.fu_counts s))

(* --- show ------------------------------------------------------------- *)

let show_cmd =
  let doc = "Inspect a DFG: listing, classes, critical path, DOT." in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print Graphviz DOT instead.")
  in
  let run spec dot json =
    let g = or_die ~json (load_graph spec) in
    if dot then print_string (Dfg.Dot.of_graph g)
    else begin
      Format.printf "%a@." Dfg.Graph.pp g;
      Format.printf "%a@." Dfg.Stats.pp (Dfg.Stats.compute g);
      let savings = Dfg.Cse.savings g in
      if savings > 0 then
        Printf.printf "note: CSE would remove %d duplicate op(s) (--cse)\n"
          savings
    end
  in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ graph_arg $ dot $ json_arg)

(* --- mfs -------------------------------------------------------------- *)

let mfs_cmd =
  let doc = "Move Frame Scheduling (time- or resource-constrained)." in
  let run spec cs library latency clock limits ports cse json =
    let g = load_input ~json ~cse spec in
    let p = Problem.make ~library ?clock ?latency ?ports g in
    let spec_kind =
      if limits = [] then Core.Mfs.Time { cs = Problem.cs p cs }
      else Core.Mfs.Resource { limits }
    in
    let outcome =
      or_die ~json (Core.Mfs.run ~config:p.Problem.config g spec_kind)
    in
    let s = outcome.Core.Mfs.schedule in
    Format.printf "%a@." Core.Schedule.pp s;
    print_string
      (Report.Table.render_kv
         [
           ("control steps", string_of_int s.Core.Schedule.cs);
           ("functional units", fu_string s);
           ("local reschedulings", string_of_int outcome.Core.Mfs.restarts);
           ("search widenings", string_of_int outcome.Core.Mfs.widenings);
           ( "Liapunov trace",
             Printf.sprintf "monotone=%b positive=%b"
               (Core.Liapunov.Trace.non_increasing outcome.Core.Mfs.trace)
               (Core.Liapunov.Trace.positive outcome.Core.Mfs.trace) );
           ( "valid",
             match Core.Schedule.check_diags s with
             | [] -> "yes"
             | ds -> "NO: " ^ String.concat "; " (List.map Diag.message ds) );
         ])
  in
  Cmd.v (Cmd.info "mfs" ~doc)
    Term.(
      const run $ graph_arg $ cs_arg $ library_arg $ latency_arg $ clock_arg
      $ limits_arg $ ports_arg $ cse_arg $ json_arg)

(* --- mfsa ------------------------------------------------------------- *)

let mfsa_cmd =
  let doc = "Mixed scheduling-allocation: schedule, bind ALUs/REGs/MUXes." in
  let run spec cs library latency clock ports style verilog simulate cse
      widths vcd netlist fsm json =
    let g = load_input ~json ~cse spec in
    let p = Problem.make ~library ?clock ?latency ?ports ~widths g in
    let widths = Problem.widths p in
    let d = or_die ~json (Flow.synthesize ~style p Flow.Mfsa (Flow.Time cs)) in
    let dp = d.Flow.datapath in
    Format.printf "%a@." Core.Schedule.pp d.Flow.schedule;
    Format.printf "%a@." Rtl.Datapath.pp dp;
    (* The full-word cost first; a width-aware design's [cost] is priced
       at its inferred widths. *)
    (match widths with
    | None -> Format.printf "%a@." Rtl.Cost.pp d.Flow.cost
    | Some _ ->
        Format.printf "%a@.width-aware %a@." Rtl.Cost.pp
          (Rtl.Cost.of_datapath p.Problem.library dp)
          Rtl.Cost.pp d.Flow.cost);
    Format.printf "@.";
    let ctrl = Rtl.Controller.make dp ~delay:(Problem.delay p) in
    (match Flow.check ~style2:(style = Core.Mfsa.No_self_loop) p dp with
    | Ok () -> print_endline "datapath checks: ok"
    | Error errs ->
        List.iter
          (fun e -> print_endline ("datapath check FAILED: " ^ Diag.to_string e))
          errs);
    if simulate then begin
      let random, narrowing = Flow.simulate p dp ctrl in
      (match random with
      | Ok () -> print_endline "simulation vs golden model: ok (20 random runs)"
      | Error e -> print_endline ("simulation FAILED: " ^ Diag.to_string e));
      match narrowing with
      | None -> ()
      | Some (Ok ()) ->
          print_endline
            "narrowing safety vs full-width model: ok (5 directed + 20 random \
             vectors)"
      | Some (Error e) ->
          print_endline ("narrowing safety FAILED: " ^ Diag.to_string e)
    end;
    (match vcd with
    | None -> ()
    | Some path ->
        let env =
          List.mapi (fun i v -> (v, i + 1)) (Dfg.Graph.inputs g)
        in
        let r = or_die ~json (Sim.Machine.run dp ctrl ~env) in
        or_die ~json (Sim.Vcd.write_file ~path dp r);
        Printf.printf "waveform written to %s\n" path);
    (match fsm with
    | Some encoding ->
        print_newline ();
        print_string (Rtl.Fsm.render ~encoding ctrl)
    | None -> ());
    if netlist then begin
      print_newline ();
      print_string (Rtl.Dot_netlist.of_datapath dp)
    end;
    if verilog then begin
      print_newline ();
      print_string (Rtl.Verilog.emit ?widths dp ctrl)
    end
  in
  Cmd.v (Cmd.info "mfsa" ~doc)
    Term.(
      const run $ graph_arg $ cs_arg $ library_arg $ latency_arg $ clock_arg
      $ ports_arg $ style_arg $ verilog_arg
      $ simulate_arg $ cse_arg $ widths_arg $ vcd_arg $ netlist_arg $ fsm_arg
      $ json_arg)

(* --- compare ---------------------------------------------------------- *)

let csv_arg =
  let doc = "Emit the result table as CSV on stdout instead of aligned text." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let compare_cmd =
  let doc = "Compare MFS against list scheduling, FDS and annealing." in
  let run spec cs library latency clock limits cse csv json =
    let g = load_input ~json ~cse spec in
    let p = Problem.make ~library ?clock ?latency g in
    let config = p.Problem.config in
    let cs = Problem.cs p cs in
    (* Width-aware area of each scheduler's design, through the same
       column-packed binding for every row so the column compares
       schedules, not binders. "-" when the binding fails. *)
    let facts = Analysis.Ranges.analyze g in
    let widths name = Analysis.Ranges.width_of facts name in
    let warea s =
      match Problem.colbind_datapath p.Problem.library config g s with
      | Ok dp ->
          Printf.sprintf "%.0f"
            (Rtl.Cost.of_datapath ~widths p.Problem.library dp).Rtl.Cost.total
      | Error _ -> "-"
    in
    let row name ?(via = "primary") result =
      match result with
      | Ok s ->
          [
            name;
            fu_string s;
            warea s;
            (if Core.Schedule.check_diags s = [] then "yes" else "NO");
            via;
          ]
      | Error d -> [ name; "error: " ^ Diag.message d; "-"; "-"; via ]
    in
    (* The MFS row goes through the harness driver so the table shows
       whether the schedule came from MFS itself or from the degradation
       chain (list scheduling + column packing). *)
    let constr = Flow.constr ~cs ~limits in
    let options =
      { Harness.Driver.default_options with constr; library; latency; clock }
    in
    let mfs_row =
      let o = Harness.Driver.run ~options g in
      let via =
        match o.Harness.Driver.sched_via with
        | Harness.Driver.Primary -> "primary"
        | Harness.Driver.Fallback f -> "fallback:" ^ f
      in
      match (o.Harness.Driver.schedule, o.Harness.Driver.stopped) with
      | Some s, _ -> row "MFS" ~via (Ok s)
      | None, Some d -> row "MFS" ~via (Error d)
      | None, None -> row "MFS" ~via (Error (Diag.internal "no schedule"))
    in
    let list_row =
      row "list" (Result.map fst (Flow.schedule p Flow.List_sched constr))
    in
    let baseline_rows =
      list_row
      ::
      (if limits = [] then
         [
           row "FDS" (Baselines.Fds.run ~config g ~cs);
           row "annealing" (Baselines.Annealing.run ~config g ~cs);
         ]
       else
         [
           [ "FDS"; "n/a under resource limits"; "-"; "-"; "-" ];
           [ "annealing"; "n/a under resource limits"; "-"; "-"; "-" ];
         ])
    in
    if csv then
      print_string
        (Report.Table.to_csv
           ~header:[ "scheduler"; "units"; "widths"; "valid"; "via" ]
           (mfs_row :: baseline_rows))
    else begin
      if limits = [] then Printf.printf "time budget: %d steps\n" cs
      else
        Printf.printf "resource limits: %s\n"
          (String.concat ", "
             (List.map (fun (c, k) -> Printf.sprintf "%s=%d" c k) limits));
      print_string
        (Report.Table.render
           ~header:[ "scheduler"; "units"; "widths"; "valid"; "via" ]
           (mfs_row :: baseline_rows))
    end
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ graph_arg $ cs_arg $ library_arg $ latency_arg $ clock_arg
      $ limits_arg $ cse_arg $ csv_arg $ json_arg)

(* --- fuzz ------------------------------------------------------------- *)

let fuzz_cmd =
  let doc =
    "Randomized robustness campaign: drive random DFGs and option points \
     through the full pipeline, check cross-stage invariants, shrink any \
     failure to a minimal reproducer."
  in
  let runs_arg =
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N"
           ~doc:"Number of randomized runs.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign seed; the whole campaign is deterministic in it.")
  in
  let max_ops_arg =
    Arg.(value & opt int 12 & info [ "max-ops" ] ~docv:"N"
           ~doc:"Largest generated DFG size.")
  in
  let inject_arg =
    Arg.(value & opt (some fault_conv) None & info [ "inject" ] ~docv:"FAULT"
           ~doc:"Inject a fault each run and require the invariants to \
                 catch it (corrupt-start, corrupt-col, corrupt-trace, \
                 skew-delay).")
  in
  let corpus_arg =
    Arg.(value & opt string "fuzz-corpus" & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Directory for shrunk failure reproducers.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Narrate each eventful run.")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
           ~doc:"Fan the campaign out over $(docv) supervised worker \
                 processes (see $(b,synth batch)); summaries are \
                 aggregated in seed order and therefore identical for \
                 any worker count.")
  in
  let deadline_arg =
    Arg.(value & opt float 60.0 & info [ "deadline" ] ~docv:"S"
           ~doc:"Per-case wall-clock watchdog when --jobs > 1; a case \
                 past the deadline is SIGKILLed and reported as a \
                 timeout failure.")
  in
  let run runs seed max_ops inject corpus verbose jobs deadline json =
    reject_process_fault ~json ~cmd:"fuzz" ~catcher:"an invariant" inject;
    let log = if verbose then prerr_endline else fun _ -> () in
    let report =
      if jobs <= 1 then
        Harness.Fuzz.campaign ?fault:inject ~corpus_dir:corpus ~max_ops ~log
          ~runs ~seed ()
      else begin
        (* Pooled campaign: same cases, executed in forked workers under
           the batch watchdogs, re-aggregated in seed order. *)
        let generated = Harness.Fuzz.cases ~max_ops ~runs ~seed () in
        let pool_jobs =
          Batch.Jobs.fuzz_jobs ?fault:inject ~corpus_dir:corpus
            ~campaign_seed:seed generated
        in
        Batch.Pool.install_signal_handlers ();
        let o =
          or_die ~json
            (Batch.Pool.run ~workers:jobs ~retry:Batch.Retry.default ~log
               ~deadline pool_jobs)
        in
        if o.Batch.Pool.interrupted then begin
          prerr_endline "fuzz: interrupted; workers killed";
          exit 130
        end;
        Batch.Jobs.fuzz_report o.Batch.Pool.records
      end
    in
    print_string (Harness.Fuzz.render_report report);
    if report.Harness.Fuzz.failures <> [] then
      die ~json
        (Diag.internal ~code:"fuzz.failures"
           (Printf.sprintf "%d failing run(s); reproducers under %s"
              (List.length report.Harness.Fuzz.failures)
              corpus))
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ runs_arg $ seed_arg $ max_ops_arg $ inject_arg $ corpus_arg
      $ verbose_arg $ jobs_arg $ deadline_arg $ json_arg)

(* --- batch ------------------------------------------------------------- *)

let batch_cmd =
  let doc =
    "Run a manifest of synthesis jobs under a supervised worker pool: \
     each job in its own forked process behind a wall-clock SIGKILL \
     watchdog and an OCaml-heap ceiling, verdicts journalled as JSONL \
     with per-record fsync so --resume skips completed jobs after a \
     crash. Exits 6 when some jobs failed, 130 on interrupt."
  in
  let manifest_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MANIFEST"
           ~doc:"Manifest file: one job per line — a DFG file or builtin \
                 name followed by synth flags and an optional \
                 --inject FAULT (including the process faults hang and \
                 segv). '#' starts a comment.")
  in
  let jobs_arg =
    Arg.(value & opt int 4 & info [ "jobs" ] ~docv:"N"
           ~doc:"Concurrent worker processes.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH"
           ~doc:"JSONL journal of verdicts (one fsynced record per \
                 attempt); required for --resume.")
  in
  let resume_arg =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Skip jobs whose final verdict is already in the journal; \
                 Timeout/Oom attempts the retry policy had not finished \
                 restart at the next attempt.")
  in
  let deadline_arg =
    Arg.(value & opt float 60.0 & info [ "deadline" ] ~docv:"S"
           ~doc:"Per-attempt wall-clock watchdog; a worker past it is \
                 SIGKILLed and the attempt verdict is timeout.")
  in
  let retries_arg =
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N"
           ~doc:"Re-runs allowed after a timeout/oom attempt, each on \
                 the baseline engines under a halved deadline.")
  in
  let heap_mb_arg =
    Arg.(value & opt int 512 & info [ "heap-mb" ] ~docv:"MB"
           ~doc:"OCaml-heap ceiling per worker, enforced by a Gc alarm \
                 inside the worker (verdict: oom). 0 disables it.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ]
           ~doc:"Narrate spawns, kills and verdicts on stderr.")
  in
  let hosts_arg =
    Arg.(value & opt (some string) None & info [ "hosts" ] ~docv:"ENDPOINTS"
           ~doc:"Comma-separated endpoints to bind (socket paths or \
                 tcp:PORT). Jobs are fanned out to connected synth \
                 worker processes as time-bounded leases with fencing \
                 epochs, heartbeat liveness and jittered re-lease on \
                 worker failure.")
  in
  let local_fallback_arg =
    Arg.(value & flag & info [ "local-fallback" ]
           ~doc:"With --hosts: escalate a job to in-process execution \
                 when its lease retries are exhausted or no worker is \
                 live.")
  in
  let run manifest jobs journal resume deadline retries heap_mb hosts
      local_fallback verbose json =
    if resume && journal = None then
      die ~json
        (Diag.usage ~code:"batch.usage" "--resume requires --journal PATH");
    let entries = or_die ~json (Batch.Manifest.parse_file manifest) in
    let pool_jobs =
      List.mapi (fun i e -> Batch.Jobs.of_entry ~seed:i e) entries
    in
    let heap_words = heap_words heap_mb in
    let log = if verbose then prerr_endline else fun _ -> () in
    Batch.Pool.install_signal_handlers ();
    let o =
      match hosts with
      | None ->
          or_die ~json
            (Batch.Pool.run ~workers:jobs
               ~retry:(Batch.Retry.of_retries retries)
               ?journal ~resume ?heap_words ~log ~deadline pool_jobs)
      | Some hosts ->
          let endpoints =
            or_die ~json (Serve.Endpoint.parse_list hosts)
          in
          let pairs =
            List.mapi
              (fun i (j : Batch.Pool.job) ->
                let entry = List.nth entries i in
                (j, Some (Cluster.Wire.of_entry ~seed:i entry)))
              pool_jobs
          in
          let config =
            {
              Cluster.Dispatcher.default_config with
              Cluster.Dispatcher.endpoints;
              local_workers = jobs;
              heap_words;
              local_fallback;
              log;
            }
          in
          Result.map fst
            (Cluster.Dispatcher.run ~config
               ~retry:(Batch.Retry.of_retries retries)
               ?journal ~resume ~deadline pairs)
          |> or_die ~json
    in
    if o.Batch.Pool.interrupted then begin
      prerr_endline "batch: interrupted; workers killed, journal flushed";
      exit 130
    end;
    if o.Batch.Pool.resumed > 0 then
      Printf.printf "resume: %d job(s) already journalled, skipped\n"
        o.Batch.Pool.resumed;
    print_string (Batch.Jobs.summarize o.Batch.Pool.records);
    let failed =
      List.filter Batch.Jobs.record_failed o.Batch.Pool.records
    in
    if failed <> [] then
      die ~json
        (Diag.partial
           (Printf.sprintf "%d of %d job(s) failed" (List.length failed)
              (List.length o.Batch.Pool.records)))
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run $ manifest_arg $ jobs_arg $ journal_arg $ resume_arg
      $ deadline_arg $ retries_arg $ heap_mb_arg $ hosts_arg
      $ local_fallback_arg $ verbose_arg $ json_arg)

(* --- explore ----------------------------------------------------------- *)

let explore_cmd =
  let doc =
    "Design-space exploration: expand a sweep spec (MFSA weight vectors, \
     time/resource constraints, cell-library variants, design styles, \
     engines) into a job lattice, evaluate it under the supervised batch \
     pool, and fold the results into a Pareto front over (control steps, \
     ALU area, MUX area, registers). A content-addressed result cache \
     keyed on the canonicalized DFG plus the full option vector lets \
     repeated or resumed sweeps skip every already-evaluated point. \
     Exits 6 when some points failed, 130 on interrupt."
  in
  let spec_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC"
           ~doc:"Sweep specification file (see Explore.Spec for the \
                 line-oriented format: graph, engine, style, weights, cs, \
                 limits, library, clock, cse, budget, inject).")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
           ~doc:"Concurrent worker processes.")
  in
  let cache_arg =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"PATH"
           ~doc:"Content-addressed result cache (JSONL, fsynced appends). \
                 Loaded before the sweep; every solved or infeasible \
                 point is appended, failures never are.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH"
           ~doc:"Pool verdict journal; required for --resume.")
  in
  let resume_arg =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Replay final verdicts from the journal instead of \
                 re-forking their workers.")
  in
  let budget_arg =
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"N"
           ~doc:"Adaptive-refinement point budget; overrides the spec's \
                 $(b,budget) directive (0 disables refinement).")
  in
  let deadline_arg =
    Arg.(value & opt float 60.0 & info [ "deadline" ] ~docv:"S"
           ~doc:"Per-point wall-clock watchdog; a worker past it is \
                 SIGKILLed and the point counts as failed.")
  in
  let json_out_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the full outcome (counts + per-point records) as \
                 one JSON object on stdout.")
  in
  let dot_front_arg =
    Arg.(value & flag & info [ "dot-front" ]
           ~doc:"Print the dominance graph as Graphviz DOT: a node per \
                 solved point (front members filled), an edge from a \
                 dominating front member to each dominated point.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ]
           ~doc:"Narrate batches, spawns and verdicts on stderr.")
  in
  let hosts_arg =
    Arg.(value & opt (some string) None & info [ "hosts" ] ~docv:"ENDPOINTS"
           ~doc:"Comma-separated endpoints to bind (socket paths or \
                 tcp:PORT); lattice points are leased to connected synth \
                 worker processes with heartbeat failover.")
  in
  let local_fallback_arg =
    Arg.(value & flag & info [ "local-fallback" ]
           ~doc:"With --hosts: evaluate a point in-process when its \
                 lease retries are exhausted or no worker is live.")
  in
  let run spec_file jobs cache journal resume budget deadline csv json_out
      dot_front hosts local_fallback verbose json =
    if resume && journal = None then
      die ~json
        (Diag.usage ~code:"explore.usage" "--resume requires --journal PATH");
    let spec = or_die ~json (Explore.Spec.load spec_file) in
    let log = if verbose then prerr_endline else fun _ -> () in
    Batch.Pool.install_signal_handlers ();
    let runner =
      match hosts with
      | None -> None
      | Some hosts ->
          let endpoints =
            or_die ~json (Serve.Endpoint.parse_list hosts)
          in
          let config =
            {
              Cluster.Dispatcher.default_config with
              Cluster.Dispatcher.endpoints;
              local_workers = jobs;
              local_fallback;
              log;
            }
          in
          Some
            (fun ~deadline jobs ->
              Result.map fst
                (Cluster.Dispatcher.run ~config ~retry:Batch.Retry.none
                   ?journal ~resume ~deadline
                   (List.map (fun (j, w) -> (j, Some w)) jobs)))
    in
    let o =
      or_die ~json
        (Explore.Engine.run ~workers:jobs ?cache ?journal ~resume ~deadline
           ?budget ?runner ~log spec)
    in
    if o.Explore.Engine.interrupted then begin
      prerr_endline "explore: interrupted; workers killed, journal flushed";
      exit 130
    end;
    if json_out then print_string (Explore.Front_report.json o ^ "\n")
    else if csv then print_string (Explore.Front_report.csv o)
    else if dot_front then print_string (Explore.Front_report.dot o)
    else begin
      print_string (Explore.Front_report.summary o);
      print_string (Explore.Front_report.table o)
    end;
    flush stdout;
    List.iter prerr_endline (Explore.Front_report.failure_lines o);
    let failures = Explore.Engine.failures o in
    if failures <> [] then
      die ~json
        (Diag.partial ~code:"explore.partial-failure"
           (Printf.sprintf "%d of %d point(s) failed" (List.length failures)
              (List.length o.Explore.Engine.evals)))
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ spec_arg $ jobs_arg $ cache_arg $ journal_arg $ resume_arg
      $ budget_arg $ deadline_arg $ csv_arg $ json_out_arg $ dot_front_arg
      $ hosts_arg $ local_fallback_arg $ verbose_arg $ json_arg)

(* --- lint ------------------------------------------------------------- *)

let lint_cmd =
  let doc =
    "Static analysis: DFG lint, feasibility bounds, register lifetimes and \
     RTL dataflow verification. Emits findings, not designs; the exit code \
     is the worst error finding's category (0 when clean)."
  in
  let json_out_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the findings as a JSON array on stdout.")
  in
  let dot_lint_arg =
    Arg.(value & flag & info [ "dot-lint" ]
           ~doc:"Print the DFG as Graphviz DOT with flagged nodes filled \
                 (red = error, amber = warning).")
  in
  let inject_arg =
    Arg.(value & opt (some fault_conv) None & info [ "inject" ] ~docv:"FAULT"
           ~doc:"Corrupt the synthesised artefacts with a seeded fault \
                 before the post passes run — demonstrates that the fault \
                 is statically detectable (corrupt-start, corrupt-col, \
                 corrupt-trace, collide-mem, skew-delay).")
  in
  let run spec cs library latency clock limits ports style inject json_out
      dot_lint cse widths json =
    reject_process_fault ~json ~cmd:"lint" ~catcher:"a static pass" inject;
    let g = load_input ~json ~cse spec in
    let p = Problem.make ~library ?clock ?latency ?ports g in
    let time_mode = limits = [] in
    let cs = Problem.cs p cs in
    let constr = Flow.constr ~cs ~limits in
    let pre, pre_times = Flow.pre p constr in
    let post_times = ref [] in
    let timed name f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      post_times := (name, (Unix.gettimeofday () -. t0) *. 1000.) :: !post_times;
      r
    in
    let bounds =
      Analysis.Feasibility.analyze
        ?cs:(if time_mode then Some cs else None)
        p.Problem.config g
    in
    let header =
      (if time_mode then
         Printf.sprintf "critical path: %d step(s); budget: %d"
           bounds.Analysis.Feasibility.min_steps cs
       else
         Printf.sprintf "critical path: %d step(s)"
           bounds.Analysis.Feasibility.min_steps)
      ::
      (match bounds.Analysis.Feasibility.fu_lower_bounds with
      | [] -> []
      | bs ->
          [
            "FU lower bounds: "
            ^ String.concat ", "
                (List.map (fun (c, k) -> Printf.sprintf "%s >= %d" c k) bs);
          ])
    in
    (* The post passes audit a synthesised design; an error on the input
       (e.g. an infeasible budget) stops here — MFS/MFSA never run. Both
       run under the same constraint: the budget, or the unit caps. *)
    let post, reg_lines =
      if Analysis.Finding.errors pre <> [] then ([], [])
      else begin
        let d = or_die ~json (Flow.synthesize ~style p Flow.Mfsa constr) in
        let dp = d.Flow.datapath in
        let delay = Problem.delay p in
        (* The MFS schedule carries FU columns (the corrupt-col target); the
           MFSA schedule is audited against its own register binding. *)
        let mfs_sched, mfs_trace =
          Result.value ~default:(d.Flow.schedule, None)
            (Flow.schedule p Flow.Mfs constr)
        in
        let sched, trace =
          Option.value ~default:(mfs_sched, mfs_trace)
            (Option.bind inject (fun f ->
                 Harness.Fault.corrupt f mfs_sched mfs_trace))
        in
        let eff_delay =
          match inject with
          | Some Harness.Fault.Skew_delay ->
              Option.value ~default:delay (Harness.Fault.skew_delay dp ~delay)
          | _ -> delay
        in
        let ctrl = Rtl.Controller.make dp ~delay in
        (* Explicit lets: [@] evaluates right-to-left, which would
           reverse the recorded pass order. *)
        let post_sched =
          timed "post-schedule" (fun () ->
              Analysis.Runner.post_schedule ?trace sched
              @ Analysis.Sched_lint.lifetimes ~regs:dp.Rtl.Datapath.regs
                  d.Flow.schedule)
        in
        let post_rtl =
          timed "post-rtl" (fun () -> Flow.post_rtl ~delay:eff_delay p dp ctrl)
        in
        let fs = post_sched @ post_rtl in
        ( fs,
          [
            Printf.sprintf "registers: %d used; lower bound %d"
              dp.Rtl.Datapath.regs.Rtl.Left_edge.count
              (Analysis.Sched_lint.reg_lower_bound d.Flow.schedule);
          ] )
      end
    in
    let fs = pre @ post in
    if dot_lint then begin
      let fill =
        List.map
          (fun (n, sev) ->
            ( n,
              match sev with
              | Diag.Error -> "#f4cccc"
              | Diag.Warning -> "#ffe599" ))
          (Analysis.Finding.flagged fs)
      in
      print_string (Dfg.Dot.of_graph ~fill g);
      print_newline ()
    end
    else if json_out then begin
      (* Report object: the findings plus per-pass wall-clock timings. *)
      let times = pre_times @ List.rev !post_times in
      Printf.printf "{\"findings\":%s,\"timings_ms\":{%s}}\n"
        (Analysis.Finding.to_json fs)
        (String.concat ","
           (List.map (fun (n, ms) -> Printf.sprintf "%S:%.3f" n ms) times))
    end
    else begin
      List.iter print_endline header;
      List.iter print_endline reg_lines;
      if widths then
        print_string (Analysis.Ranges.width_table g (Analysis.Ranges.analyze g));
      List.iter
        (fun f -> print_endline (Diag.to_string f.Analysis.Finding.diag))
        fs;
      print_endline (Analysis.Runner.summary fs)
    end;
    let code = Analysis.Finding.exit_code fs in
    if code <> 0 then exit code
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run $ graph_arg $ cs_arg $ library_arg $ latency_arg $ clock_arg
      $ limits_arg $ ports_arg $ style_arg
      $ inject_arg $ json_out_arg $ dot_lint_arg $ cse_arg $ widths_arg
      $ json_arg)

(* --- compile ------------------------------------------------------------ *)

let compile_cmd =
  let doc =
    "Compile a behavioural description (.beh) to the DFG text format."
  in
  let run spec cse json =
    let g = load_input ~json ~cse spec in
    print_string (Dfg.Parser.to_source g)
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const run $ graph_arg $ cse_arg $ json_arg)

(* --- serve -------------------------------------------------------------- *)

let socket_arg =
  Arg.(value & opt string "synth.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path; a stale file is replaced.")

let serve_cmd =
  let doc =
    "Run the crash-safe synthesis daemon: length-prefixed JSON frames \
     over a Unix socket (optionally TCP on localhost), requests \
     dispatched to a supervised worker pool behind per-request deadlines \
     and heap ceilings, repeats answered from the shared content-addressed \
     result cache. Admission is bounded — overload is shed with a typed \
     serve.overloaded rejection and a retry-after hint, never an unbounded \
     queue. The cache and request journal are fsynced JSONL, so kill -9 \
     plus restart resumes warm; SIGTERM drains gracefully and exits 0."
  in
  let tcp_arg =
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
           ~doc:"Also listen on 127.0.0.1:PORT.")
  in
  let jobs_arg =
    Arg.(value & opt int 4 & info [ "jobs" ] ~docv:"N"
           ~doc:"Concurrent worker processes.")
  in
  let deadline_arg =
    Arg.(value & opt float 30.0 & info [ "deadline" ] ~docv:"S"
           ~doc:"Per-request wall-clock ceiling; a request's own deadline \
                 field may only lower it. Workers past it are SIGKILLed \
                 and the client gets a typed serve.deadline error.")
  in
  let heap_mb_arg =
    Arg.(value & opt int 512 & info [ "heap-mb" ] ~docv:"MB"
           ~doc:"OCaml-heap ceiling per worker (0 disables).")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N"
           ~doc:"Admission queue bound; arrivals beyond it are shed with \
                 serve.overloaded.")
  in
  let max_conns_arg =
    Arg.(value & opt int 128 & info [ "max-conns" ] ~docv:"N"
           ~doc:"Connection ceiling; excess connects get one typed \
                 rejection frame and are closed.")
  in
  let read_timeout_arg =
    Arg.(value & opt float 10.0 & info [ "read-timeout" ] ~docv:"S"
           ~doc:"Drop a connection whose partial frame makes no progress \
                 for this long (slowloris guard).")
  in
  let drain_timeout_arg =
    Arg.(value & opt float 5.0 & info [ "drain-timeout" ] ~docv:"S"
           ~doc:"On SIGTERM, wait this long for in-flight work before \
                 SIGKILLing it.")
  in
  let cache_arg =
    Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"PATH"
           ~doc:"Shared JSONL result cache (fsynced per entry); reloaded \
                 warm after a restart. A corrupt store is moved aside to \
                 PATH.corrupt, never fatal.")
  in
  let cache_max_arg =
    Arg.(value & opt int 0 & info [ "cache-max" ] ~docv:"N"
           ~doc:"Resident cache entries to keep (LRU eviction; in-flight \
                 keys are never evicted). 0 = unbounded.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH"
           ~doc:"JSONL request journal (one fsynced verdict per completed \
                 request).")
  in
  let max_frame_arg =
    Arg.(value & opt int Batch.Jsonl.default_max_document_bytes
         & info [ "max-frame" ] ~docv:"BYTES"
             ~doc:"Wire frame / JSON document ceiling; larger frames are \
                   refused from their header alone.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ]
           ~doc:"Narrate connections, drains and store recovery on stderr.")
  in
  let run socket tcp_port jobs deadline heap_mb queue_limit max_conns
      read_timeout drain_timeout cache cache_max journal max_frame verbose
      json =
    let heap_words = heap_words heap_mb in
    let cfg =
      {
        (Serve.Daemon.default ~socket) with
        Serve.Daemon.tcp_port;
        workers = max 1 jobs;
        deadline;
        heap_words;
        queue_limit;
        max_conns;
        max_frame;
        read_timeout;
        drain_timeout;
        cache_path = cache;
        cache_max = (if cache_max <= 0 then None else Some cache_max);
        journal_path = journal;
        log = (if verbose then prerr_endline else fun _ -> ());
      }
    in
    or_die ~json (Serve.Daemon.run cfg)
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs_arg $ deadline_arg
      $ heap_mb_arg $ queue_arg $ max_conns_arg $ read_timeout_arg
      $ drain_timeout_arg $ cache_arg $ cache_max_arg $ journal_arg
      $ max_frame_arg $ verbose_arg $ json_arg)

(* --- bombard ------------------------------------------------------------ *)

let bombard_cmd =
  let doc =
    "Load-test a running synth serve daemon: fork concurrent clients \
     firing a mixed request corpus, optionally planting faults (hanging \
     jobs, oversized frames, half-closed sockets), then assert the \
     robustness contract — every request answered with a typed response, \
     planted faults classified under their expected codes, and (for warm \
     re-runs) a minimum cache hit rate. Exits 5 when an assertion fails."
  in
  let jobs_arg =
    Arg.(value & opt int 8 & info [ "jobs" ] ~docv:"N"
           ~doc:"Concurrent client processes.")
  in
  let requests_arg =
    Arg.(value & opt int 25 & info [ "requests" ] ~docv:"N"
           ~doc:"Requests per client.")
  in
  let graph_corpus_arg =
    Arg.(value & opt string "diffeq" & info [ "graph" ] ~docv:"DFG"
           ~doc:"Corpus graph (builtin name or file).")
  in
  let hang_arg =
    Arg.(value & flag & info [ "plant-hang" ]
           ~doc:"Plant schedule requests that hang in the worker (1s \
                 request deadline); expect serve.deadline verdicts.")
  in
  let oversize_arg =
    Arg.(value & flag & info [ "plant-oversize" ]
           ~doc:"Plant frames over the daemon's limit; expect \
                 serve.frame-too-large.")
  in
  let half_close_arg =
    Arg.(value & flag & info [ "plant-half-close" ]
           ~doc:"Plant connections that shut down their send side right \
                 after the request; the response must still arrive.")
  in
  let timeout_arg =
    Arg.(value & opt float 30.0 & info [ "timeout" ] ~docv:"S"
           ~doc:"Client-side wait per response.")
  in
  let hit_rate_arg =
    Arg.(value & opt (some float) None & info [ "expect-hit-rate" ]
           ~docv:"R"
           ~doc:"Assert cached/ok is at least R (warm re-run check).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Narrate on stderr.")
  in
  let run socket jobs requests graph plant_hang plant_oversize
      plant_half_close timeout expect_hit_rate verbose json =
    let cfg =
      {
        Serve.Bombard.socket;
        jobs;
        requests;
        graph;
        plant_hang;
        plant_oversize;
        plant_half_close;
        timeout;
        expect_hit_rate;
        log = (if verbose then prerr_endline else fun _ -> ());
      }
    in
    let report = or_die ~json (Serve.Bombard.run cfg) in
    print_endline (Serve.Bombard.report_to_json report);
    match report.Serve.Bombard.b_failures with
    | [] -> ()
    | failures ->
        die ~json
          (Diag.internal ~code:"serve.bombard-failed"
             (String.concat "; " failures))
  in
  Cmd.v (Cmd.info "bombard" ~doc)
    Term.(
      const run $ socket_arg $ jobs_arg $ requests_arg $ graph_corpus_arg
      $ hang_arg $ oversize_arg $ half_close_arg $ timeout_arg
      $ hit_rate_arg $ verbose_arg $ json_arg)

(* --- worker ------------------------------------------------------------ *)

let worker_cmd =
  let doc =
    "Join a batch/explore cluster as an execution host: dial the \
     dispatcher endpoint, register capacity, execute leased jobs through \
     a local supervised pool (fork isolation, deadline SIGKILL, heap \
     ceiling), heartbeat, and reconnect with jittered backoff if the \
     dispatcher restarts. Holds no durable state — a crashed worker's \
     leases are replayed elsewhere and its late results are fenced off."
  in
  let connect_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ENDPOINT"
           ~doc:"Dispatcher endpoint: a Unix socket path or tcp:PORT \
                 (as given to --hosts).")
  in
  let jobs_arg =
    Arg.(value & opt int 2 & info [ "jobs" ] ~docv:"N"
           ~doc:"Concurrent leases to execute (local pool width).")
  in
  let name_arg =
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME"
           ~doc:"Cluster-unique worker name (default: host-pid).")
  in
  let heap_mb_arg =
    Arg.(value & opt int 512 & info [ "heap-mb" ] ~docv:"MB"
           ~doc:"OCaml-heap ceiling per leased job; 0 disables it.")
  in
  let heartbeat_arg =
    Arg.(value & opt float 0.5 & info [ "heartbeat" ] ~docv:"S"
           ~doc:"Heartbeat interval; the dispatcher declares a worker \
                 dead after a few missed beats.")
  in
  let max_reconnects_arg =
    Arg.(value & opt int 0 & info [ "max-reconnects" ] ~docv:"N"
           ~doc:"Give up after N consecutive failed dials (exit with a \
                 typed cluster.disconnected error); 0 retries forever.")
  in
  let libraries_arg =
    Arg.(value & opt (some string) None & info [ "libraries" ] ~docv:"LIBS"
           ~doc:"Comma-separated cell-library variants this host keeps \
                 warm, advertised in the registration.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Narrate on stderr.")
  in
  let run endpoint jobs name heap_mb heartbeat max_reconnects libraries
      verbose json =
    let endpoint = or_die ~json (Serve.Endpoint.parse endpoint) in
    let name =
      match name with
      | Some n -> n
      | None ->
          Printf.sprintf "%s-%d" (Unix.gethostname ()) (Unix.getpid ())
    in
    let heap_words = heap_words heap_mb in
    Batch.Pool.install_signal_handlers ();
    let cfg =
      {
        (Cluster.Worker.default_config ~endpoint ~name) with
        Cluster.Worker.capacity = jobs;
        heap_words;
        heartbeat_interval = heartbeat;
        max_sessions = (if max_reconnects <= 0 then max_int
                        else max_reconnects);
        libraries =
          (match libraries with
          | None -> []
          | Some s ->
              List.filter
                (fun l -> l <> "")
                (List.map String.trim (String.split_on_char ',' s)));
        log = (if verbose then prerr_endline else fun _ -> ());
      }
    in
    or_die ~json (Cluster.Worker.run ~stop:Batch.Pool.stop_pending cfg)
  in
  Cmd.v (Cmd.info "worker" ~doc)
    Term.(
      const run $ connect_arg $ jobs_arg $ name_arg $ heap_mb_arg
      $ heartbeat_arg $ max_reconnects_arg $ libraries_arg $ verbose_arg
      $ json_arg)

(* --- chaos ------------------------------------------------------------- *)

let chaos_cmd =
  let doc =
    "Chaos-test the cluster dispatcher: run a builtin-graph workload \
     once undisturbed and once across forked synth workers with planted \
     faults (kill -9 mid-lease, optional SIGSTOP partition and \
     slow-loris worker, duplicated result frames), then assert the \
     fault-tolerance contract — every job reaches a terminal verdict \
     exactly once in the journal, verdicts and exit code match the \
     undisturbed run, a warm --resume replays zero jobs, and an \
     all-workers-dead cluster still completes via local fallback. \
     Exits 5 when a check fails."
  in
  let dir_arg =
    Arg.(value & opt string "_chaos" & info [ "dir" ] ~docv:"DIR"
           ~doc:"Scratch directory for sockets and journals.")
  in
  let workers_arg =
    Arg.(value & opt int 3 & info [ "workers" ] ~docv:"N"
           ~doc:"Forked worker processes.")
  in
  let jobs_arg =
    Arg.(value & opt int 12 & info [ "jobs" ] ~docv:"N"
           ~doc:"Workload size (builtin graphs, one planted hang).")
  in
  let deadline_arg =
    Arg.(value & opt float 10.0 & info [ "deadline" ] ~docv:"S"
           ~doc:"Per-attempt wall-clock watchdog.")
  in
  let no_kill_arg =
    Arg.(value & flag & info [ "no-kill" ]
           ~doc:"Skip the kill -9 of a worker mid-lease.")
  in
  let stop_arg =
    Arg.(value & flag & info [ "sigstop" ]
           ~doc:"SIGSTOP a worker at half-way: a half-open partition \
                 (process alive, heartbeats stopped).")
  in
  let loris_arg =
    Arg.(value & flag & info [ "slow-loris" ]
           ~doc:"Add a worker that registers and heartbeats but never \
                 finishes a lease; its leases must be reclaimed by \
                 expiry.")
  in
  let no_duplicate_arg =
    Arg.(value & flag & info [ "no-duplicate" ]
           ~doc:"Skip the worker that delivers every result twice.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Narrate on stderr.")
  in
  let json_out_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print the report as one JSON object on stdout.")
  in
  let run dir workers jobs deadline no_kill sigstop slow_loris no_duplicate
      seed verbose json_out =
    let json = json_out in
    let cfg =
      {
        Cluster.Chaos.dir;
        workers;
        jobs;
        kill_worker = not no_kill;
        stop_worker = sigstop;
        slow_loris;
        duplicate = not no_duplicate;
        deadline;
        seed;
        log = (if verbose then prerr_endline else fun _ -> ());
      }
    in
    let report = or_die ~json (Cluster.Chaos.run cfg) in
    if json_out then
      print_endline (Batch.Jsonl.to_string (Cluster.Chaos.report_json report))
    else Cluster.Chaos.print report print_endline;
    if not (Cluster.Chaos.passed report) then
      die ~json
        (Diag.internal ~code:"cluster.chaos-failed"
           (Printf.sprintf "%d check(s) failed"
              (List.length
                 (List.filter
                    (fun c -> not c.Cluster.Chaos.k_pass)
                    report.Cluster.Chaos.checks))))
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ dir_arg $ workers_arg $ jobs_arg $ deadline_arg
      $ no_kill_arg $ stop_arg $ loris_arg $ no_duplicate_arg $ seed_arg
      $ verbose_arg $ json_out_arg)

(* --- version ----------------------------------------------------------- *)

(* Kept in sync by hand: there is no release pipeline stamping builds, and
   a stable literal keeps the cram expectation exact. *)
let version_string = "synth 0.6.0"

let version_cmd =
  let doc = "Print the tool name and version." in
  let run () = print_endline version_string in
  Cmd.v (Cmd.info "version" ~doc) Term.(const run $ const ())

let main =
  let doc = "MFS/MFSA high-level synthesis (DAC 1992 reproduction)" in
  Cmd.group (Cmd.info "synth" ~doc ~version:version_string)
    [ show_cmd; mfs_cmd; mfsa_cmd; lint_cmd; compare_cmd; explore_cmd;
      fuzz_cmd; batch_cmd; compile_cmd; serve_cmd; bombard_cmd; worker_cmd;
      chaos_cmd; version_cmd ]

let () =
  (* A vanished peer (redirected stderr, daemon client, journal sink) must
     surface as a typed EPIPE diagnostic, never a SIGPIPE kill. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Cmdliner's own exit codes for CLI misuse / internal errors are 124 and
     125; fold them into this tool's documented contract (2 = usage,
     5 = internal). *)
  match Cmd.eval main with
  | 124 -> exit 2
  | 125 -> exit 5
  | code -> exit code
