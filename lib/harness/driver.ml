type options = {
  cs : int;
  limits : (string * int) list;
  two_cycle : bool;
  pipelined : bool;
  latency : int option;
  clock : float option;
  style2 : bool;
  cse : bool;
  widths : bool;
  baseline_only : bool;
}

let default_options =
  {
    cs = 0;
    limits = [];
    two_cycle = false;
    pipelined = false;
    latency = None;
    clock = None;
    style2 = false;
    cse = false;
    widths = false;
    baseline_only = false;
  }

let options_to_flags o =
  let b flag on acc = if on then flag :: acc else acc in
  []
  |> b "--baseline-only" o.baseline_only
  |> b "--widths" o.widths
  |> b "--cse" o.cse
  |> b "--two-cycle-mult" o.two_cycle
  |> b "--pipelined-mult" o.pipelined
  |> b "--style 2" o.style2
  |> (fun acc ->
       match o.clock with
       | None -> acc
       | Some c -> Printf.sprintf "--clock %g" c :: acc)
  |> (fun acc ->
       match o.latency with
       | None -> acc
       | Some l -> Printf.sprintf "--latency %d" l :: acc)
  |> (fun acc ->
       List.fold_left
         (fun acc (c, k) -> Printf.sprintf "--limit '%s=%d'" c k :: acc)
         acc o.limits)
  |> (fun acc -> if o.cs > 0 then Printf.sprintf "--cs %d" o.cs :: acc else acc)
  |> String.concat " "

type budgets = { stage_seconds : float; sim_runs : int }

let default_budgets = { stage_seconds = 5.0; sim_runs = 5 }

type via = Primary | Fallback of string

type stage_report = {
  stage : string;
  seconds : float;
  over_budget : bool;
  note : string;
}

type outcome = {
  schedule : Core.Schedule.t option;
  sched_via : via;
  bind_via : via option;
  stopped : Diag.t option;
  violations : Diag.t list;
  fault_applied : bool;
  stages : stage_report list;
}

(* Wall-clock per stage; CPU time is a lie under contention and the budget
   is meant to catch hangs-in-the-making, not cycles. *)
let now () = Unix.gettimeofday ()

let colbind_datapath lib config g s =
  Result.map_error Diag.message (Problem.colbind_datapath lib config g s)

let run ?fault ?(budgets = default_budgets) ?(options = default_options) g0 =
  let stages = ref [] in
  let violations = ref [] in
  let fault_applied = ref false in
  let violate d = violations := d :: !violations in
  let timed name ?(note = "") f =
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    stages :=
      {
        stage = name;
        seconds = dt;
        over_budget = dt > budgets.stage_seconds;
        note;
      }
      :: !stages;
    r
  in
  let annotate note =
    match !stages with
    | s :: rest -> stages := { s with note } :: rest
    | [] -> ()
  in
  let finish ?schedule ?(sched_via = Primary) ?bind_via ?stopped () =
    {
      schedule;
      sched_via;
      bind_via;
      stopped;
      violations = List.rev !violations;
      fault_applied = !fault_applied;
      stages = List.rev !stages;
    }
  in
  (* --- CSE (optional); a rejection of a builder-valid graph is a CSE
     defect, noted and survived by continuing with the original graph. *)
  let g =
    if not options.cse then g0
    else
      timed "cse" (fun () ->
          match Dfg.Cse.run g0 with
          | Ok g -> g
          | Error d ->
              violate d;
              g0)
  in
  let prob =
    Problem.make
      ~library:
        (Problem.library_of_flags ~two_cycle:options.two_cycle
           ~pipelined:options.pipelined)
      ?clock:options.clock ?latency:options.latency ~widths:options.widths g
  in
  let lib = prob.Problem.library and config = prob.Problem.config in
  let cs = Problem.cs prob options.cs in
  (* --- Static pre-gate: DFG lint + feasibility bounds. An error finding on
     the input stops the run before any scheduler time is spent; in
     resource-constrained mode no step budget binds, so only the unit caps
     are checked. *)
  let pre_stop =
    timed "lint-pre" (fun () ->
        let fs =
          if options.limits = [] then Analysis.Runner.pre ~cs config g
          else Analysis.Runner.pre ~limits:options.limits config g
        in
        Analysis.Runner.stop_diag fs)
  in
  match pre_stop with
  | Some d -> finish ~stopped:d ()
  | None ->
  (* --- Schedule: MFS, degrading to list scheduling + left-edge column
     packing when MFS hits an internal wall (the defect is still counted —
     degradation keeps the campaign going, it does not launder bugs). *)
  let spec =
    if options.limits = [] then Core.Mfs.Time { cs }
    else Core.Mfs.Resource { limits = options.limits }
  in
  let baseline_schedule () =
    let fb =
      if options.limits = [] then Baselines.List_sched.time ~config g ~cs
      else Baselines.List_sched.resource ~config g ~limits:options.limits
    in
    match fb with
    | Ok s ->
        let col =
          Baselines.Colbind.columns config g ~start:s.Core.Schedule.start
        in
        `Fallback { s with Core.Schedule.col = Some col }
    | Error d -> `Stop d
  in
  let sched_result =
    timed "schedule" (fun () ->
        if options.baseline_only then baseline_schedule ()
        else
          match Core.Mfs.run ~config g spec with
          | Ok o -> `Primary (o.Core.Mfs.schedule, o.Core.Mfs.trace)
          | Error d when Diag.is_bug d ->
              violate d;
              baseline_schedule ()
          | Error d -> `Stop d)
  in
  match sched_result with
  | `Stop d -> finish ~stopped:d ()
  | (`Primary _ | `Fallback _) as r ->
      let pristine, trace, sched_via =
        match r with
        | `Primary (s, tr) -> (s, Some tr, Primary)
        | `Fallback s ->
            annotate
              (if options.baseline_only then
                 "baseline engines forced (list scheduling + column packing)"
               else "MFS degraded to list scheduling + column packing");
            (s, None, Fallback "list_sched+colbind")
      in
      (* --- Inject (optional): corrupt the artifact the fault targets. A
         process fault never returns from here: only the batch pool's
         wall-clock SIGKILL ends the run — the per-stage budget below is
         advisory and would merely have recorded the overrun post-hoc. *)
      let sched, trace =
        timed "inject" (fun () ->
            match fault with
            | None -> (pristine, trace)
            | Some f -> (
                Fault.crash f;
                match Fault.corrupt f pristine trace with
                | Some corrupted ->
                    fault_applied := true;
                    corrupted
                | None -> (pristine, trace)))
      in
      (* --- Invariants: schedule validity and Liapunov stability. *)
      timed "invariants" (fun () ->
          (match Core.Schedule.check_diag sched with
          | Ok () -> ()
          | Error d -> violate d);
          match trace with
          | None -> ()
          | Some tr ->
              if not (Core.Liapunov.Trace.non_increasing tr) then
                violate
                  (Diag.internal ~code:"harness.trace-monotone"
                     "Liapunov trace is not monotone non-increasing");
              if not (Core.Liapunov.Trace.positive tr) then
                violate
                  (Diag.internal ~code:"harness.trace-positive"
                     "Liapunov trace has a non-positive energy"));
      (* --- Bind: MFSA, degrading to the schedule's own columns bound as
         single-function units when MFSA hits an internal wall. *)
      let style =
        if options.style2 then Core.Mfsa.No_self_loop
        else Core.Mfsa.Unrestricted
      in
      let baseline_bind () =
        match Problem.colbind_datapath lib config g pristine with
        | Ok dp -> `Fallback dp
        | Error d -> `Stop d
      in
      let bind_result =
        timed "bind" (fun () ->
            if options.baseline_only then baseline_bind ()
            else
              match Core.Mfsa.run ~config ~style ~library:lib ~cs g with
              | Ok o -> `Primary o.Core.Mfsa.datapath
              | Error d when Diag.is_bug d ->
                  violate d;
                  baseline_bind ()
              | Error d -> `Stop d)
      in
      match bind_result with
      | `Stop d ->
          if Diag.is_bug d then begin
            violate d;
            finish ~schedule:sched ~sched_via ()
          end
          else finish ~schedule:sched ~sched_via ~stopped:d ()
      | (`Primary _ | `Fallback _) as b ->
          let dp, bind_via =
            match b with
            | `Primary dp -> (dp, Primary)
            | `Fallback dp ->
                annotate
                  (if options.baseline_only then
                     "baseline engines forced (column-packed binding)"
                   else
                     "MFSA degraded to column-packed single-function binding");
                (dp, Fallback "colbind")
          in
          let delay = Problem.delay prob in
          (* --- Datapath checks, with the skew fault applied to the delay
             model the checker (and the static RTL lint below) sees. *)
          let eff_delay =
            match fault with
            | Some Fault.Skew_delay -> (
                match Fault.skew_delay dp ~delay with
                | Some d ->
                    fault_applied := true;
                    d
                | None -> delay)
            | _ -> delay
          in
          timed "check" (fun () ->
              match
                Rtl.Check.datapath ~style2:options.style2
                  ~steps_overlap:
                    (Core.Grid.steps_overlap
                       ~latency:config.Core.Config.functional_latency)
                  dp ~delay:eff_delay
              with
              | Ok () -> ()
              | Error ds -> List.iter violate ds);
          (* --- Controller + simulation vs the golden model. *)
          let ctrl =
            timed "controller" (fun () -> Rtl.Controller.make dp ~delay)
          in
          (* --- Static post-gate: schedule, lifetime, trace and RTL
             dataflow audits; error findings count as violations. *)
          timed "lint-post" (fun () ->
              let fs =
                Analysis.Runner.post_schedule ?trace sched
                @ Analysis.Runner.post_rtl
                    ~share_mutex:config.Core.Config.share_mutex
                    ?latency:config.Core.Config.functional_latency dp ctrl
                    ~delay:eff_delay
              in
              List.iter
                (fun f -> violate f.Analysis.Finding.diag)
                (Analysis.Finding.errors fs));
          timed "sim" (fun () ->
              match Sim.Equiv.check_random ~runs:budgets.sim_runs dp ctrl with
              | Ok () -> ()
              | Error d -> violate d);
          (* --- Narrowing safety: the width-truncated machine must stay
             bit-exact against the full-width golden model. *)
          (match Problem.widths prob with
          | None -> ()
          | Some widths ->
              timed "narrowing" (fun () ->
                  match
                    Sim.Equiv.check_narrowing ~runs:budgets.sim_runs ~widths
                      dp ctrl
                  with
                  | Ok () -> ()
                  | Error d -> violate d));
          finish ~schedule:sched ~sched_via ~bind_via ()
