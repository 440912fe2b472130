let internal ?nodes ~code fmt = Finding.error ?nodes Diag.Internal ~code fmt

let schedule (s : Core.Schedule.t) =
  let g = s.Core.Schedule.graph and config = s.Core.Schedule.config in
  let start = s.Core.Schedule.start in
  let name i = (Dfg.Graph.node g i).Dfg.Graph.name in
  let col i = (Option.get s.Core.Schedule.col).(i) in
  let sched =
    List.map
      (function
        | Core.Schedule.Start_range i ->
            internal ~nodes:[ name i ] ~code:"lint.sched-start"
              "op %s starts at step %d < 1" (name i) start.(i)
        | Core.Schedule.Horizon i ->
            internal ~nodes:[ name i ] ~code:"lint.sched-horizon"
              "op %s finishes at step %d past the %d-step horizon" (name i)
              (Core.Schedule.finish s i) s.Core.Schedule.cs
        | Core.Schedule.Precedence (i, p) ->
            internal ~nodes:[ name i; name p ] ~code:"lint.sched-precedence"
              "op %s (start %d) reads %s before it finishes (step %d)"
              (name i) start.(i) (name p) (Core.Schedule.finish s p)
        | Core.Schedule.Col_range i ->
            internal ~nodes:[ name i ] ~code:"lint.sched-col"
              "op %s is bound to column %d < 1" (name i) (col i)
        | Core.Schedule.Fu_conflict (i, j) ->
            internal ~nodes:[ name i; name j ] ~code:"lint.fu-conflict"
              "ops %s and %s occupy %s unit %d in the same step" (name i)
              (name j)
              (Dfg.Graph.node_class g (Dfg.Graph.node g i))
              (col i))
      (Core.Schedule.violations s)
  in
  (* Post-schedule memory audit: the ports [Rtl.Datapath.bind_ports] binds
     per bank. Needing more than the bank offers means the scheduler let
     simultaneous accesses exceed the physical interface — an internal
     defect, not an input problem. *)
  let span i = Core.Config.span config (Dfg.Graph.node g i).Dfg.Graph.kind in
  let banks =
    List.filter_map
      (fun bank ->
        let ports = Core.Config.bank_ports config g bank in
        let accesses =
          List.filter_map
            (fun nd ->
              if
                Dfg.Op.is_mem nd.Dfg.Graph.kind
                && String.equal
                     (Dfg.Graph.node_class g nd)
                     (Dfg.Graph.mem_class bank)
              then Some nd.Dfg.Graph.id
              else None)
            (Dfg.Graph.nodes g)
        in
        let needed =
          List.length
            (Rtl.Datapath.bind_ports
               ?latency:config.Core.Config.functional_latency g ~start ~span
               accesses)
        in
        if needed > ports then
          Some
            (internal ~code:"mem.bank-conflict"
               "bank %s needs %d concurrent port(s) in this schedule but \
                offers %d"
               bank needed ports)
        else None)
      (Dfg.Graph.bank_names g)
  in
  sched @ banks

let value_intervals (s : Core.Schedule.t) =
  let g = s.Core.Schedule.graph in
  let delay i =
    Core.Config.delay s.Core.Schedule.config
      (Dfg.Graph.node g i).Dfg.Graph.kind
  in
  Rtl.Lifetime.intervals g ~start:s.Core.Schedule.start ~delay
    ~cs:s.Core.Schedule.cs

let reg_lower_bound s = Rtl.Lifetime.max_overlap (value_intervals s)

let lifetimes ?regs (s : Core.Schedule.t) =
  let ivs = value_intervals s in
  let fs = ref [] in
  let add f = fs := f :: !fs in
  List.iter
    (fun iv ->
      (* A value born past the final boundary (e.g. a corrupted start step)
         is out of range even when nothing reads it afterwards. *)
      if
        iv.Rtl.Lifetime.birth > s.Core.Schedule.cs
        || Rtl.Lifetime.needs_register iv
           && (iv.Rtl.Lifetime.birth < 0
              || iv.Rtl.Lifetime.death > s.Core.Schedule.cs)
      then
        add
          (internal
             ~nodes:[ iv.Rtl.Lifetime.value ]
             ~code:"lint.lifetime-horizon"
             "value %s is live across boundaries %d..%d, outside the \
              %d-step horizon"
             iv.Rtl.Lifetime.value iv.Rtl.Lifetime.birth iv.Rtl.Lifetime.death
             s.Core.Schedule.cs))
    ivs;
  (match regs with
  | None -> ()
  | Some regs ->
      List.iter
        (fun (v, v', r) ->
          add
            (internal ~nodes:[ v; v' ] ~code:"lint.reg-lifetime-clash"
               "values %s and %s share reg%d while both are live" v v' r))
        (Rtl.Check.reg_clashes regs ivs);
      let bound = Rtl.Lifetime.max_overlap ivs in
      if regs.Rtl.Left_edge.count > bound then
        add
          (Finding.warning Diag.Internal ~code:"lint.reg-overallocated"
             "binding uses %d register(s) where %d suffice"
             regs.Rtl.Left_edge.count bound));
  List.rev !fs

let trace tr =
  let fs = ref [] in
  if not (Core.Liapunov.Trace.non_increasing tr) then
    fs :=
      internal ~code:"lint.trace-monotone"
        "Liapunov energy increases along the move trace"
      :: !fs;
  if not (Core.Liapunov.Trace.positive tr) then
    fs :=
      internal ~code:"lint.trace-positive"
        "Liapunov trace reaches a non-positive energy" :: !fs;
  List.rev !fs
