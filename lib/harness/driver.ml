type options = {
  constr : Flow.constr;
  library : Problem.library_variant;
  style : Core.Mfsa.style;
  latency : int option;
  clock : float option;
  cse : bool;
  widths : bool;
  baseline_only : bool;
}

let default_options =
  {
    constr = Flow.Time 0;
    library = Problem.Default;
    style = Core.Mfsa.Unrestricted;
    latency = None;
    clock = None;
    cse = false;
    widths = false;
    baseline_only = false;
  }

let options_to_flags o =
  let value flag t v =
    [ Printf.sprintf "--%s %s" flag (Setting.to_string t v) ]
  in
  let on flag b = if b then [ flag ] else [] in
  String.concat " "
    ((match o.constr with
     | Flow.Time 0 -> []
     | Flow.Time cs -> value "cs" Setting.budget cs
     | Flow.Resource caps ->
         List.map (fun c -> "--limit '" ^ Setting.(to_string cap) c ^ "'") caps)
    @ Option.fold ~none:[] ~some:(value "latency" Setting.latency) o.latency
    @ Option.fold ~none:[] ~some:(value "clock" Setting.clock) o.clock
    @ on "--style 2" (o.style = Core.Mfsa.No_self_loop)
    @ on "--pipelined-mult" (o.library = Problem.Pipelined)
    @ on "--two-cycle-mult" (o.library = Problem.Two_cycle)
    @ on "--cse" o.cse @ on "--widths" o.widths
    @ on "--baseline-only" o.baseline_only)

let options_of_flags ~fail flags =
  let value flag t v k =
    match Setting.of_string t v with
    | Some x -> k x
    | None ->
        Error
          (fail
             (Printf.sprintf "%s %s: expected %s" flag v (Setting.expected t v)))
  in
  let unquote v =
    let n = String.length v in
    if n >= 2 && v.[0] = '\'' && v.[n - 1] = '\'' then String.sub v 1 (n - 2)
    else v
  in
  let caps o = match o.constr with Flow.Resource l -> l | Flow.Time _ -> [] in
  (* In any order, the pipelined unit wins over the two-cycle one
     ({!Problem.library_of_flags}) and caps over a budget ({!Flow.constr}). *)
  let rec go o = function
    | [] -> Ok o
    | "--two-cycle-mult" :: rest ->
        let pipelined = o.library = Problem.Pipelined in
        let library = Problem.library_of_flags ~two_cycle:true ~pipelined in
        go { o with library } rest
    | "--pipelined-mult" :: rest ->
        go { o with library = Problem.Pipelined } rest
    | "--cse" :: rest -> go { o with cse = true } rest
    | "--widths" :: rest -> go { o with widths = true } rest
    | "--baseline-only" :: rest -> go { o with baseline_only = true } rest
    | (("--cs" | "--steps") as flag) :: v :: rest ->
        value flag Setting.budget v (fun cs ->
            go { o with constr = Flow.constr ~cs ~limits:(caps o) } rest)
    | "--limit" :: v :: rest ->
        value "--limit" Setting.cap (unquote v) (fun c ->
            go { o with constr = Flow.Resource (caps o @ [ c ]) } rest)
    | "--latency" :: v :: rest ->
        value "--latency" Setting.latency v (fun l ->
            go { o with latency = Some l } rest)
    | (("--clock" | "--chain") as flag) :: v :: rest ->
        value flag Setting.clock v (fun c -> go { o with clock = Some c } rest)
    | "--style" :: v :: rest ->
        value "--style" Setting.style v (fun style -> go { o with style } rest)
    | [ flag ] when String.starts_with ~prefix:"--" flag ->
        Error (fail (flag ^ ": missing value"))
    | flag :: _ -> Error (fail (flag ^ ": unknown manifest flag"))
  in
  go default_options flags

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
    Problem.make ~library:options.library ?clock:options.clock
      ?latency:options.latency ~widths:options.widths g
  in
  let constr = options.constr in
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
      let style = options.style in
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
          (match
             Flow.check ~delay:eff_delay
               ~style2:(style = Core.Mfsa.No_self_loop)
               prob dp
           with
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
