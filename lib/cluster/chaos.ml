module Pool = Batch.Pool
module Jobs = Batch.Jobs
module Journal = Batch.Journal
module Retry = Batch.Retry
module Jsonl = Batch.Jsonl
module Endpoint = Serve.Endpoint

type config = {
  dir : string;
  workers : int;
  jobs : int;
  kill_worker : bool;
  stop_worker : bool;
  slow_loris : bool;
  duplicate : bool;
  stage_seconds : float;
  deadline : float;
  seed : int;
  log : string -> unit;
}

let default_config ~dir =
  {
    dir;
    workers = 3;
    jobs = 12;
    kill_worker = true;
    stop_worker = false;
    slow_loris = false;
    duplicate = true;
    stage_seconds = 5.0;
    deadline = 10.0;
    seed = 0;
    log = (fun (_ : string) -> ());
  }

type check = { k_name : string; k_pass : bool; k_detail : string }

type report = {
  checks : check list;
  baseline_seconds : float;
  chaos_seconds : float;
  local_runs : int;
  remote_runs : int;
  fenced : int;
  releases : int;
  worker_deaths : int;
}

let passed r = List.for_all (fun c -> c.k_pass) r.checks

let report_json r =
  Jsonl.Obj
    [
      ( "checks",
        Jsonl.List
          (List.map
             (fun c ->
               Jsonl.Obj
                 [
                   ("name", Jsonl.String c.k_name);
                   ("pass", Jsonl.Bool c.k_pass);
                   ("detail", Jsonl.String c.k_detail);
                 ])
             r.checks) );
      ("passed", Jsonl.Bool (passed r));
      ("baseline_seconds", Jsonl.Float r.baseline_seconds);
      ("chaos_seconds", Jsonl.Float r.chaos_seconds);
      ("local_runs", Jsonl.Int r.local_runs);
      ("remote_runs", Jsonl.Int r.remote_runs);
      ("fenced", Jsonl.Int r.fenced);
      ("releases", Jsonl.Int r.releases);
      ("worker_deaths", Jsonl.Int r.worker_deaths);
    ]

let print r out =
  List.iter
    (fun c ->
      out
        (Printf.sprintf "%s %-22s %s"
           (if c.k_pass then "PASS" else "FAIL")
           c.k_name c.k_detail))
    r.checks;
  out
    (Printf.sprintf
       "runs: baseline %.1fs, chaos %.1fs; %d remote, %d local, %d fenced, \
        %d releases, %d worker deaths"
       r.baseline_seconds r.chaos_seconds r.remote_runs r.local_runs r.fenced
       r.releases r.worker_deaths)

(* --- Workload ----------------------------------------------------------- *)

(* Small builtin graphs only: nothing on disk, so dispatcher and forked
   workers agree on every job's content digest with no shared files.
   Base control-step counts are feasible for each graph, so the healthy
   workload is all-clean and any verdict drift under chaos is loud. *)
let specs =
  [|
    ("diffeq", 4); ("ewf", 20); ("tseng", 6); ("ex2", 8); ("facet", 6);
    ("chained", 8);
  |]

let manifest_lines cfg =
  List.init cfg.jobs (fun i ->
      if i = cfg.jobs - 1 then
        (* One planted hang: exercises the worker-side deadline kill and
           the verdict-level degraded retry — in both runs, so parity
           still holds. It is also the workload's one slow job, so the
           total-outage fault below is guaranteed to land mid-lease. *)
        "diffeq --cs 4 --inject hang"
      else
        (* Job ids are content digests of the manifest line, so every
           line must be unique or jobs collapse into one: bump the step
           budget by how many times this spec has already appeared
           (looser budgets stay feasible — only tighter ones reject). *)
        let spec, cs = specs.((cfg.seed + i) mod Array.length specs) in
        Printf.sprintf "%s --cs %d" spec (cs + (i / Array.length specs)))

let build_jobs cfg =
  let budgets =
    {
      Harness.Driver.default_budgets with
      Harness.Driver.stage_seconds = cfg.stage_seconds;
    }
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match Batch.Manifest.parse_line ~file:"<chaos>" ~line:(i + 1) line with
        | Error d -> Error d
        | Ok None -> go (i + 1) acc rest
        | Ok (Some entry) ->
            let job = Jobs.of_entry ~budgets ~seed:i entry in
            let wire =
              Wire.of_entry ~stage_seconds:cfg.stage_seconds ~seed:i entry
            in
            go (i + 1) ((job, wire) :: acc) rest)
  in
  go 0 [] (manifest_lines cfg)

(* --- Fault planting ----------------------------------------------------- *)

let fork_worker cfg ~endpoint ~index =
  match Unix.fork () with
  | 0 ->
      (* Own process group, so SIGKILLing the worker also reaps the
         pool children it forked — no orphaned hang jobs spinning on. *)
      (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
      let code =
        try
          let wcfg =
            {
              (Worker.default_config ~endpoint
                 ~name:(Printf.sprintf "w%d" index))
              with
              Worker.capacity = 2;
              heartbeat_interval = 0.15;
              duplicate_results = cfg.duplicate && index = cfg.workers - 1;
              reconnect =
                Retry.backoff ~max_attempts:8 ~base_delay:0.05
                  ~max_delay:0.5 ();
              max_sessions = 50;
            }
          in
          match Worker.run wcfg with Ok () -> 0 | Error _ -> 1
        with _ -> 1
      in
      Unix._exit code
  | pid -> pid

(* A worker that heartbeats convincingly but never finishes a lease:
   the dispatcher must reclaim its leases by expiry, not liveness. *)
let fork_slow_loris ~endpoint =
  match Unix.fork () with
  | 0 ->
      (try ignore (Unix.setsid ()) with Unix.Unix_error _ -> ());
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
      (try
         match Endpoint.connect ~timeout:5.0 endpoint with
         | Error _ -> ()
         | Ok client ->
             let send payload =
               ignore (Serve.Client.send client payload)
             in
             send
               (Serve.Protocol.register_msg ~worker:"loris" ~capacity:1
                  ~libraries:[] ());
             let rec beat () =
               send
                 (Serve.Protocol.heartbeat_msg ~worker:"loris" ~inflight:0);
               ignore (Unix.select [] [] [] 0.15);
               beat ()
             in
             beat ()
       with _ -> ());
      Unix._exit 0
  | pid -> pid

(* Kill the whole process group: the worker plus any pool children it
   had in flight when the fault landed. *)
let kill_group pid signal =
  (try Unix.kill (-pid) signal with Unix.Unix_error _ -> ());
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let reap pids =
  List.iter
    (fun pid ->
      kill_group pid Sys.sigcont;
      kill_group pid Sys.sigkill;
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    pids

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s
  with Sys_error _ -> None

(* --- The experiment ----------------------------------------------------- *)

let lease_config =
  {
    Lease.retry = Retry.backoff ~max_attempts:4 ~base_delay:0.05 ~max_delay:0.4 ();
    grace = 3.0;
    heartbeat_window = 1.0;
    warmup = 1.5;
  }

let retry = Retry.default

let run cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (try Unix.mkdir cfg.dir 0o755 with Unix.Unix_error _ -> ());
  match build_jobs cfg with
  | Error d -> Error d
  | Ok jobs -> (
      let total = List.length jobs in
      let baseline_journal = Filename.concat cfg.dir "baseline.jsonl" in
      let chaos_journal = Filename.concat cfg.dir "chaos.jsonl" in
      List.iter
        (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
        [ baseline_journal; chaos_journal ];
      (* 1. Undisturbed single-host run — ground truth. *)
      cfg.log "chaos: baseline (local) run";
      let t0 = Unix.gettimeofday () in
      let baseline =
        Dispatcher.run
          ~config:
            {
              Dispatcher.default_config with
              Dispatcher.local_workers = 2;
              log = cfg.log;
            }
          ~retry ~journal:baseline_journal ~deadline:cfg.deadline
          (List.map (fun (j, _) -> (j, None)) jobs)
      in
      let baseline_seconds = Unix.gettimeofday () -. t0 in
      match baseline with
      | Error d -> Error d
      | Ok (base_o, _) -> (
          (* 2. Chaotic cluster run: real workers, planted faults. *)
          let endpoint =
            Endpoint.Unix_path (Filename.concat cfg.dir "chaos.sock")
          in
          let victims = ref [] in
          let pids =
            List.init cfg.workers (fun i ->
                fork_worker cfg ~endpoint ~index:i)
          in
          let pids =
            if cfg.slow_loris then pids @ [ fork_slow_loris ~endpoint ]
            else pids
          in
          let worker_pids = pids in
          let killed = ref false in
          let stopped = ref false in
          let outage = ref false in
          let tick t =
            let done_ = Dispatcher.completed t in
            if cfg.kill_worker && (not !killed) && done_ >= 2 then begin
              killed := true;
              match worker_pids with
              | pid :: _ ->
                  cfg.log "chaos: SIGKILL worker w0 mid-run";
                  victims := pid :: !victims;
                  kill_group pid Sys.sigkill
              | [] -> ()
            end;
            (if
               cfg.stop_worker && (not !stopped) && cfg.workers > 1
               && done_ >= total / 2
             then begin
               stopped := true;
               match worker_pids with
               | _ :: pid :: _ ->
                   cfg.log "chaos: SIGSTOP worker w1 (half-open partition)";
                   victims := pid :: !victims;
                   kill_group pid Sys.sigstop
               | _ -> ()
             end);
            (* Total outage once only the slow job remains: whoever holds
               its lease dies mid-lease, and the batch can only finish
               through failover into the local pool. *)
            if
              cfg.kill_worker && (not !outage)
              && Dispatcher.remote_runs t > 0
              && Dispatcher.pending t <= 1
            then begin
              outage := true;
              cfg.log "chaos: SIGKILL every worker (total outage)";
              List.iter
                (fun pid ->
                  if not (List.mem pid !victims) then begin
                    victims := pid :: !victims;
                    kill_group pid Sys.sigkill
                  end)
                worker_pids
            end
          in
          cfg.log "chaos: cluster run with planted faults";
          let t1 = Unix.gettimeofday () in
          let chaotic =
            Dispatcher.run
              ~config:
                {
                  Dispatcher.default_config with
                  Dispatcher.endpoints = [ endpoint ];
                  local_workers = 2;
                  lease = lease_config;
                  local_fallback = true;
                  log = cfg.log;
                }
              ~retry ~journal:chaos_journal ~tick ~deadline:cfg.deadline
              (List.map (fun (j, w) -> (j, Some w)) jobs)
          in
          let chaos_seconds = Unix.gettimeofday () -. t1 in
          reap pids;
          match chaotic with
          | Error d -> Error d
          | Ok (chaos_o, t) -> (
              let journal_before = read_file chaos_journal in
              (* 3. Warm resume: must replay the journal, run nothing. *)
              let resumed =
                Dispatcher.run
                  ~config:
                    { Dispatcher.default_config with Dispatcher.log = cfg.log }
                  ~retry ~journal:chaos_journal ~resume:true
                  ~deadline:cfg.deadline
                  (List.map (fun (j, _) -> (j, None)) jobs)
              in
              match resumed with
              | Error d -> Error d
              | Ok (resume_o, _) ->
                  let journal_after = read_file chaos_journal in
                  (* 4. All remotes dead: endpoint bound, nobody dials —
                     local fallback must still finish the batch. *)
                  let fb_endpoint =
                    Endpoint.Unix_path (Filename.concat cfg.dir "dead.sock")
                  in
                  let fb_jobs =
                    match jobs with
                    | a :: b :: _ -> [ a; b ]
                    | rest -> rest
                  in
                  let fallback =
                    Dispatcher.run
                      ~config:
                        {
                          Dispatcher.default_config with
                          Dispatcher.endpoints = [ fb_endpoint ];
                          local_workers = 2;
                          lease =
                            { lease_config with Lease.warmup = 0.2 };
                          local_fallback = true;
                          log = cfg.log;
                        }
                      ~retry ~deadline:cfg.deadline
                      (List.map (fun (j, w) -> (j, Some w)) fb_jobs)
                  in
                  let check k_name k_pass k_detail =
                    { k_name; k_pass; k_detail }
                  in
                  let chaos_records_all =
                    match Journal.load chaos_journal with
                    | Ok rs -> rs
                    | Error _ -> []
                  in
                  let final_counts = Hashtbl.create 32 in
                  List.iter
                    (fun (r : Journal.record) ->
                      if r.Journal.final then
                        Hashtbl.replace final_counts r.Journal.id
                          (1
                          + Option.value ~default:0
                              (Hashtbl.find_opt final_counts r.Journal.id)))
                    chaos_records_all;
                  let dup_finals =
                    Hashtbl.fold
                      (fun _ n acc -> if n > 1 then acc + 1 else acc)
                      final_counts 0
                  in
                  let baseline_failed =
                    List.length
                      (List.filter Jobs.record_failed base_o.Pool.records)
                  in
                  let chaos_failed =
                    List.length
                      (List.filter Jobs.record_failed chaos_o.Pool.records)
                  in
                  let checks =
                    [
                      check "all-jobs-terminal"
                        (List.length chaos_o.Pool.records = total)
                        (Printf.sprintf "%d/%d final verdicts"
                           (List.length chaos_o.Pool.records)
                           total);
                      check "exactly-once-journal" (dup_finals = 0)
                        (Printf.sprintf
                           "%d job(s) with duplicate final records"
                           dup_finals);
                      check "verdict-parity"
                        (Journal.equivalent base_o.Pool.records
                           chaos_o.Pool.records)
                        "chaotic verdicts match the undisturbed run";
                      check "exit-code-parity"
                        (baseline_failed = chaos_failed)
                        (Printf.sprintf "failed: baseline %d, chaos %d"
                           baseline_failed chaos_failed);
                      check "summary-parity"
                        (Jobs.summarize base_o.Pool.records
                        = Jobs.summarize chaos_o.Pool.records)
                        "batch summaries byte-identical";
                      check "remote-execution"
                        (Dispatcher.remote_runs t > 0)
                        (Printf.sprintf "%d job(s) ran on workers"
                           (Dispatcher.remote_runs t));
                    ]
                    @ (if cfg.kill_worker || cfg.stop_worker || cfg.slow_loris
                       then
                         [
                           check "failover"
                             (Dispatcher.releases t > 0)
                             (Printf.sprintf
                                "%d lease(s) reclaimed and re-run"
                                (Dispatcher.releases t));
                         ]
                       else [])
                    @ (if cfg.duplicate then
                         [
                           check "fencing"
                             (Dispatcher.fenced t > 0)
                             (Printf.sprintf
                                "%d duplicate result(s) discarded"
                                (Dispatcher.fenced t));
                         ]
                       else [])
                    @ [
                        check "resume-replays-all"
                          (resume_o.Pool.resumed = total)
                          (Printf.sprintf "%d/%d resumed without re-running"
                             resume_o.Pool.resumed total);
                        check "resume-journal-untouched"
                          (journal_before = journal_after
                          && journal_before <> None)
                          "warm resume appended nothing";
                      ]
                    @ [
                        (match fallback with
                        | Error d ->
                            check "local-fallback" false (Diag.to_string d)
                        | Ok (fb_o, fb_t) ->
                            check "local-fallback"
                              (List.length fb_o.Pool.records
                               = List.length fb_jobs
                              && Dispatcher.local_runs fb_t
                                 = List.length fb_jobs)
                              (Printf.sprintf
                                 "%d job(s) completed in-process with no \
                                  live worker"
                                 (Dispatcher.local_runs fb_t)));
                      ]
                  in
                  Ok
                    {
                      checks;
                      baseline_seconds;
                      chaos_seconds;
                      local_runs = Dispatcher.local_runs t;
                      remote_runs = Dispatcher.remote_runs t;
                      fenced = Dispatcher.fenced t;
                      releases = Dispatcher.releases t;
                      worker_deaths = Dispatcher.worker_deaths t;
                    })))
