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

type via = Primary | Fallback of string

type outcome = {
  schedule : Core.Schedule.t option;
  sched_via : via;
  bind_via : via option;
  stopped : Diag.t option;
  violations : Diag.t list;
  fault_applied : bool;
}

let colbind_datapath lib config g s =
  Result.map_error Diag.message (Problem.colbind_datapath lib config g s)

let run ?fault ?(options = default_options) g0 =
  let violations = ref [] in
  let fault_applied = ref false in
  let violate d = violations := d :: !violations in
  let finish ?schedule ?(sched_via = Primary) ?bind_via ?stopped () =
    {
      schedule;
      sched_via;
      bind_via;
      stopped;
      violations = List.rev !violations;
      fault_applied = !fault_applied;
    }
  in
  (* --- CSE (optional); a rejection of a builder-valid graph is a CSE
     defect, noted and survived by continuing with the original graph. *)
  let g =
    if not options.cse then g0
    else
      match Dfg.Cse.run g0 with
      | Ok g -> g
      | Error d ->
          violate d;
          g0
  in
  let prob =
    Problem.make
      ~library:
        (Problem.library_of_flags ~two_cycle:options.two_cycle
           ~pipelined:options.pipelined)
      ?clock:options.clock ?latency:options.latency ~widths:options.widths g
  in
  let constr = Flow.constr ~cs:options.cs ~limits:options.limits in
  (* --- Static pre-gate: DFG lint + feasibility bounds. An error finding on
     the input stops the run before any scheduler time is spent. *)
  match Analysis.Runner.stop_diag (fst (Flow.pre prob constr)) with
  | Some d -> finish ~stopped:d ()
  | None ->
  (* --- Schedule: MFS, degrading to list scheduling + left-edge column
     packing when MFS hits an internal wall (the defect is still counted —
     degradation keeps the campaign going, it does not launder bugs). *)
  let baseline_schedule () =
    Result.map
      (fun (s, _) ->
        let col =
          Baselines.Colbind.columns prob.Problem.config g
            ~start:s.Core.Schedule.start
        in
        ({ s with Core.Schedule.col = Some col }, None,
         Fallback "list_sched+colbind"))
      (Flow.schedule prob Flow.List_sched constr)
  in
  let scheduled =
    if options.baseline_only then baseline_schedule ()
    else
      match Flow.schedule prob Flow.Mfs constr with
      | Ok (s, trace) -> Ok (s, trace, Primary)
      | Error d when Diag.is_bug d ->
          violate d;
          baseline_schedule ()
      | Error d -> Error d
  in
  match scheduled with
  | Error d -> finish ~stopped:d ()
  | Ok (pristine, trace, sched_via) -> (
      (* --- Inject (optional): corrupt the artifact the fault targets. A
         process fault never returns from here: only the batch pool's
         wall-clock SIGKILL ends the run. *)
      let sched, trace =
        match fault with
        | None -> (pristine, trace)
        | Some f -> (
            Fault.crash f;
            match Fault.corrupt f pristine trace with
            | Some corrupted ->
                fault_applied := true;
                corrupted
            | None -> (pristine, trace))
      in
      (* --- Invariants: schedule validity and Liapunov stability. *)
      (match Core.Schedule.check_diag sched with
      | Ok () -> ()
      | Error d -> violate d);
      Option.iter
        (fun tr ->
          if not (Core.Liapunov.Trace.non_increasing tr) then
            violate
              (Diag.internal ~code:"harness.trace-monotone"
                 "Liapunov trace is not monotone non-increasing");
          if not (Core.Liapunov.Trace.positive tr) then
            violate
              (Diag.internal ~code:"harness.trace-positive"
                 "Liapunov trace has a non-positive energy"))
        trace;
      (* --- Bind: MFSA under the same constraint, degrading to the
         schedule's own columns bound as single-function units when MFSA
         hits an internal wall. *)
      let style =
        if options.style2 then Core.Mfsa.No_self_loop
        else Core.Mfsa.Unrestricted
      in
      let baseline_bind () =
        Result.map
          (fun dp -> (dp, Fallback "colbind"))
          (Problem.colbind_datapath prob.Problem.library prob.Problem.config
             g pristine)
      in
      let bound =
        if options.baseline_only then baseline_bind ()
        else
          match Flow.synthesize ~style prob Flow.Mfsa constr with
          | Ok d -> Ok (d.Flow.datapath, Primary)
          | Error d when Diag.is_bug d ->
              violate d;
              baseline_bind ()
          | Error d -> Error d
      in
      match bound with
      | Error d when Diag.is_bug d ->
          violate d;
          finish ~schedule:sched ~sched_via ()
      | Error d -> finish ~schedule:sched ~sched_via ~stopped:d ()
      | Ok (dp, bind_via) ->
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
          (match Flow.check ~delay:eff_delay ~style2:options.style2 prob dp with
          | Ok () -> ()
          | Error ds -> List.iter violate ds);
          let ctrl = Rtl.Controller.make dp ~delay in
          (* --- Static post-gate: schedule, lifetime, trace and RTL
             dataflow audits; error findings count as violations. *)
          let fs =
            Analysis.Runner.post_schedule ?trace sched
            @ Flow.post_rtl ~delay:eff_delay prob dp ctrl
          in
          List.iter
            (fun f -> violate f.Analysis.Finding.diag)
            (Analysis.Finding.errors fs);
          (* --- Simulation vs the golden model on 5 random vectors and,
             in width-aware mode, narrowing safety: the width-truncated
             machine must stay bit-exact against the full-width golden
             model. *)
          let random, narrowing = Flow.simulate ~runs:5 prob dp ctrl in
          Result.iter_error violate random;
          Option.iter (Result.iter_error violate) narrowing;
          finish ~schedule:sched ~sched_via ~bind_via ())
