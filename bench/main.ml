(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DAC'92, section 6), plus the runtime comparison its §1
   claims and ablations over the design choices in DESIGN.md.

   Sections (run all by default, or select on the command line):
     table1    MFS balanced schedules per example and time budget
     table2    MFSA RTL results, design styles 1 and 2
     figure1   the 2-D placement table with an operation's move
     figure2   PF/RF/FF/MF frames of a typical operation
     speed     Bechamel timings: MFS/MFSA vs list, FDS, annealing
     scaling   MFS runtime vs problem size, array kernel vs the frozen
               seed list kernel (Reference.Seed_mfs); also writes
               BENCH_scaling.json with the raw per-size measurements
     versus    MFSA vs an FDS + single-function binding flow
     ablation  Liapunov weight sweep, library and sharing ablations

   Numbers land in EXPERIMENTS.md next to the paper's; the shapes (who
   wins, by what factor, where the crossovers fall) are the deliverable. *)

let fus schedule =
  Core.Schedule.fu_counts schedule
  |> List.filter (fun (_, k) -> k > 0)
  |> List.map (fun (c, k) -> String.concat "" (List.init k (fun _ -> c)))
  |> String.concat ","

let fu_count s klass =
  Option.value ~default:0 (List.assoc_opt klass (Core.Schedule.fu_counts s))

let ok = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("bench: " ^ e);
      exit 1

(* Kernel entry points report typed diagnostics; render them for the bench. *)
let okd r = ok (Result.map_error Diag.message r)

(* --- Table 1 ----------------------------------------------------------- *)

type t1_row = {
  r_name : string;
  r_feature : string;
  r_graph : Dfg.Graph.t;
  r_config : Core.Config.t;
  r_budgets : int list;
  r_latencies : int list;  (* functional pipelining rows *)
}

let two_cycle_cfg =
  {
    Core.Config.default with
    Core.Config.delays = (function Dfg.Op.Mul | Dfg.Op.Div -> 2 | _ -> 1);
  }

let pipelined_cfg =
  {
    two_cycle_cfg with
    Core.Config.pipelined = (function Dfg.Op.Mul | Dfg.Op.Div -> true | _ -> false);
  }

let chain_cfg =
  {
    Core.Config.default with
    Core.Config.chaining =
      Some
        {
          Core.Config.prop_delay = Celllib.Ncr.default.Celllib.Library.prop_delay;
          clock = 100.;
        };
  }

let table1_rows () =
  [
    { r_name = "ex1 (tseng)"; r_feature = "1"; r_graph = Workloads.Classic.tseng ();
      r_config = Core.Config.default; r_budgets = [ 4; 5 ]; r_latencies = [] };
    { r_name = "ex2 (chained)"; r_feature = "1,C"; r_graph = Workloads.Classic.chained_sum ();
      r_config = chain_cfg; r_budgets = [ 3; 4 ]; r_latencies = [] };
    { r_name = "ex3 (ar)"; r_feature = "1,F"; r_graph = Workloads.Classic.ar_filter ();
      r_config = Core.Config.default; r_budgets = [ 13 ]; r_latencies = [ 4; 6; 8 ] };
    { r_name = "ex4 (fir16)"; r_feature = "1"; r_graph = Workloads.Classic.fir16 ();
      r_config = Core.Config.default; r_budgets = [ 5; 7; 9 ]; r_latencies = [] };
    { r_name = "ex5 (dct8)"; r_feature = "2"; r_graph = Workloads.Classic.dct8 ();
      r_config = two_cycle_cfg; r_budgets = [ 6; 8; 10 ]; r_latencies = [] };
    { r_name = "ex5 (dct8)"; r_feature = "2,S"; r_graph = Workloads.Classic.dct8 ();
      r_config = pipelined_cfg; r_budgets = [ 6; 8; 10 ]; r_latencies = [] };
    { r_name = "ex6 (ewf)"; r_feature = "2"; r_graph = Workloads.Classic.ewf ();
      r_config = two_cycle_cfg; r_budgets = [ 17; 19; 21 ]; r_latencies = [] };
    { r_name = "ex6 (ewf)"; r_feature = "2,S"; r_graph = Workloads.Classic.ewf ();
      r_config = pipelined_cfg; r_budgets = [ 17; 19; 21 ]; r_latencies = [] };
  ]

let table1 () =
  print_endline "== Table 1: MFS balanced schedules ==";
  print_endline
    "(feature column: 1/2 = cycles per multiply, C = chaining, F =\n\
     functional pipelining with latency L, S = structural pipelining)";
  let rows =
    List.concat_map
      (fun r ->
        let time_rows =
          List.map
            (fun cs ->
              match Core.Mfs.schedule ~config:r.r_config r.r_graph (Core.Mfs.Time { cs }) with
              | Ok s ->
                  [ r.r_name; r.r_feature; Printf.sprintf "T=%d" cs; fus s;
                    (if Core.Schedule.check_diags s = [] then "yes" else "NO") ]
              | Error e -> [ r.r_name; r.r_feature; Printf.sprintf "T=%d" cs; "error: " ^ Diag.message e; "-" ])
            r.r_budgets
        in
        let latency_rows =
          List.map
            (fun latency ->
              let config =
                { (r.r_config) with Core.Config.functional_latency = Some latency }
              in
              let cs = Core.Timeframe.min_cs config r.r_graph in
              match Core.Mfs.schedule ~config r.r_graph (Core.Mfs.Time { cs }) with
              | Ok s ->
                  [ r.r_name; r.r_feature; Printf.sprintf "L=%d" latency; fus s;
                    (if Core.Schedule.check_diags s = [] then "yes" else "NO") ]
              | Error e ->
                  [ r.r_name; r.r_feature; Printf.sprintf "L=%d" latency; "error: " ^ Diag.message e; "-" ])
            r.r_latencies
        in
        time_rows @ latency_rows)
      (table1_rows ())
  in
  print_string
    (Report.Table.render
       ~header:[ "example"; "feature"; "budget"; "functional units"; "valid" ]
       rows);
  print_newline ()

(* --- Table 2 ----------------------------------------------------------- *)

let mfsa_for style g cs =
  let lib = Celllib.Ncr.for_graph g in
  let config = Core.Config.of_library lib in
  okd (Core.Mfsa.run ~config ~style ~library:lib ~cs g)

let table2 () =
  print_endline "== Table 2: MFSA scheduling-allocation (styles 1 and 2) ==";
  let rows = ref [] in
  let overheads = ref [] in
  List.iter
    (fun (name, g) ->
      let cs = Dfg.Bounds.critical_path g + 1 in
      let o1 = mfsa_for Core.Mfsa.Unrestricted g cs in
      let o2 = mfsa_for Core.Mfsa.No_self_loop g cs in
      let row style (o : Core.Mfsa.outcome) =
        [ name; Printf.sprintf "T=%d" cs; style;
          Rtl.Cost.alu_config o.Core.Mfsa.datapath;
          Printf.sprintf "%.0f" o.Core.Mfsa.cost.Rtl.Cost.total;
          string_of_int o.Core.Mfsa.cost.Rtl.Cost.n_regs;
          string_of_int o.Core.Mfsa.cost.Rtl.Cost.n_mux;
          string_of_int o.Core.Mfsa.cost.Rtl.Cost.n_mux_inputs ]
      in
      rows := !rows @ [ row "1" o1; row "2" o2 ];
      overheads :=
        (name,
         100.
         *. (o2.Core.Mfsa.cost.Rtl.Cost.total -. o1.Core.Mfsa.cost.Rtl.Cost.total)
         /. o1.Core.Mfsa.cost.Rtl.Cost.total)
        :: !overheads)
    (Workloads.Classic.all ());
  print_string
    (Report.Table.render
       ~header:[ "example"; "T"; "style"; "ALUs"; "cost um2"; "REG"; "MUX"; "MUXin" ]
       !rows);
  print_endline "style-2 overhead over style 1 (paper: 2-11%):";
  List.iter
    (fun (name, pct) -> Printf.printf "  %-12s %+.1f%%\n" name pct)
    (List.rev !overheads);
  print_newline ()

(* --- Figures ----------------------------------------------------------- *)

let figure1 () =
  print_endline "== Figure 1: placement table (diffeq, T=4, class '*') ==";
  let g = Workloads.Classic.diffeq () in
  let o = okd (Core.Mfs.run g (Core.Mfs.Time { cs = 4 })) in
  let s = o.Core.Mfs.schedule in
  let col = Option.get s.Core.Schedule.col in
  let label pos =
    List.find_map
      (fun nd ->
        let i = nd.Dfg.Graph.id in
        if
          String.equal (Dfg.Op.fu_class nd.Dfg.Graph.kind) "*"
          && col.(i) = pos.Core.Frames.col
          && s.Core.Schedule.start.(i) = pos.Core.Frames.step
        then Some nd.Dfg.Graph.name
        else None)
      (Dfg.Graph.nodes g)
  in
  print_string
    (Report.Grid_art.render_occupancy ~title:"multiplier placement table"
       ~steps:4 ~cols:(fu_count s "*") ~label);
  (* The multiplication with the longest trajectory: ALFAP corner ->
     chosen position. *)
  let gap e = e.Core.Liapunov.Trace.from_value - e.Core.Liapunov.Trace.to_value in
  (match
     List.sort
       (fun a b -> compare (gap b) (gap a))
       (List.filter
          (fun e ->
            String.equal
              (Dfg.Op.fu_class (Dfg.Graph.node g e.Core.Liapunov.Trace.op).Dfg.Graph.kind)
              "*")
          (Core.Liapunov.Trace.entries o.Core.Mfs.trace))
   with
  | e :: _ ->
      Format.printf
        "move of %s: present position %a (V=%d) -> next position %a (V=%d)@."
        (Dfg.Graph.node g e.Core.Liapunov.Trace.op).Dfg.Graph.name
        Core.Frames.pp_pos e.Core.Liapunov.Trace.from_pos
        e.Core.Liapunov.Trace.from_value Core.Frames.pp_pos
        e.Core.Liapunov.Trace.to_pos e.Core.Liapunov.Trace.to_value
  | [] -> ());
  print_newline ()

let figure2 () =
  print_endline "== Figure 2: PF / RF / FF / MF frames of a typical op ==";
  print_endline
    "(operation r with two placed predecessors; K1/K2 occupied, R =\n\
     redundant frame, F = forbidden steps, . = move frame, > = chosen)";
  let pf = Core.Frames.primary ~step_lo:1 ~step_hi:6 ~max_cols:4 in
  let rf = Core.Frames.redundant ~current:2 ~max_cols:4 ~step_lo:1 ~step_hi:6 in
  let forbidden s = s <= 2 in
  let occupied pos =
    match (pos.Core.Frames.col, pos.Core.Frames.step) with
    | 1, 2 -> Some "K1"
    | 2, 1 -> Some "K2"
    | 1, 3 -> Some "X"
    | 2, 4 -> Some "X"
    | _ -> None
  in
  let free p = occupied p = None in
  let mf = Core.Frames.move_frame ~pf ~rf ~forbidden ~free in
  let chosen = Core.Liapunov.best (Core.Liapunov.Time_constrained { n = 4 }) mf in
  print_string
    (Report.Grid_art.render_frames ~steps:6 ~cols:4 ~pf ~rf ~forbidden
       ~occupied ~chosen);
  (match chosen with
  | Some p -> Format.printf "minimum-energy position in MF: %a@." Core.Frames.pp_pos p
  | None -> ());
  print_newline ()

(* --- Speed (Bechamel) -------------------------------------------------- *)

let speed () =
  print_endline "== Runtime: MFS/MFSA vs baselines (Bechamel, ns/run) ==";
  let open Bechamel in
  let ewf = Workloads.Classic.ewf () in
  let lib = Celllib.Ncr.for_graph ewf in
  let cfg_lib = Core.Config.of_library lib in
  let big = Workloads.Random_dag.generate_exn
      ~spec:{ Workloads.Random_dag.default with Workloads.Random_dag.ops = 200 }
      ~seed:9 ()
  in
  let big_cs = Dfg.Bounds.critical_path big + 2 in
  let staged name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"schedulers"
      [
        staged "mfs/ewf-18" (fun () ->
            okd (Core.Mfs.schedule ewf (Core.Mfs.Time { cs = 18 })));
        staged "list/ewf-18" (fun () -> ok (Baselines.List_sched.time ewf ~cs:18));
        staged "fds/ewf-18" (fun () -> ok (Baselines.Fds.run ewf ~cs:18));
        staged "annealing/ewf-18" (fun () -> ok (Baselines.Annealing.run ewf ~cs:18));
        staged "mfsa/ewf-18" (fun () ->
            okd (Core.Mfsa.run ~config:cfg_lib ~library:lib ~cs:18 ewf));
        staged "mfs/random-200" (fun () ->
            okd (Core.Mfs.schedule big (Core.Mfs.Time { cs = big_cs })));
        staged "list/random-200" (fun () ->
            ok (Baselines.List_sched.time big ~cs:big_cs));
      ]
  in
  let benchmark_cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all benchmark_cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some [ v ] -> Printf.sprintf "%.0f" v
        | _ -> "?"
      in
      rows := [ name; ns ] :: !rows)
    results;
  print_string
    (Report.Table.render
       ~header:[ "scheduler/workload"; "time (ns/run)" ]
       (List.sort compare !rows));
  print_newline ()

(* --- Scaling: the O(l^3) worst-case claim ------------------------------ *)

(* Monotonic-enough wall clock.  [Sys.time] is CPU time and was previously
   reported under a "wall-clock" label; wall time is also what a user of the
   synthesis loop experiences. *)
let time_once f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let time_best ?(reps = 3) f =
  let rec go best k =
    if k = 0 then best else go (Float.min best (time_once f)) (k - 1)
  in
  go (time_once f) (reps - 1)

(* Scaling-bench timing: one untimed warm-up run (heap growth and cache
   warming otherwise land in the first timed rep and tilt the small tiers),
   a major collection to settle the heap, then best of [reps]. *)
let time_scaling ?(reps = 5) f =
  ignore (time_once f);
  Gc.major ();
  time_best ~reps f

(* Measurements land in BENCH_scaling.json so EXPERIMENTS.md (and the next
   session) can cite exact numbers.  Format: one object with bench metadata
   (workload generator, seed, cs rule, timing method) and a [sizes] array of
   {ops, cs, opts_hash, attempts, total_ms, kernel_ms, seed_kernel_ms,
   speedup, local_exponent}.  [attempts] is the number of placement attempts
   the run needs (restarts + 1) — a step function of the workload, not of
   the kernel — and [kernel_ms] is total_ms / attempts, the per-attempt cost
   the fitted exponent is computed over.  local_exponent is the log-log
   slope of kernel_ms between consecutive sizes and speedup =
   seed_kernel_ms / kernel_ms.  opts_hash is the content-addressed option
   key the explore cache would use for the same (graph, engine, cs) point,
   so bench rows stay joinable with sweep results across option-default
   changes. *)
let scaling_json = "BENCH_scaling.json"

let scaling_opts_hash g ~cs =
  Explore.Lattice.key ~graph:g
    {
      Explore.Lattice.index = 0;
      engine = Explore.Spec.Mfs;
      style = Core.Mfsa.Unrestricted;
      weights = Core.Mfsa.equal_weights;
      constr = Explore.Spec.Time cs;
      library = Explore.Spec.Default;
      widths = false;
      ports = None;
      clock = None;
      cse = false;
      fault = None;
    }

(* A dense geometric ladder (~1.6x per tier): the fitted exponent is a
   least-squares slope, and sparse tiers let one noisy size tilt the whole
   fit.  The exponent is fitted over the per-attempt time: a restart
   re-places everything, so the total time is (restarts + 1) x the attempt
   cost, and the restart count is a step function of the workload (0 below
   ~1000 ops, 2-3 above, 5 at 25k on this generator) that would otherwise
   alias into the slope.  Both the total and the attempt count are reported
   alongside so nothing is hidden by the normalisation. *)
let scaling_sizes =
  [ 50; 100; 200; 400; 700; 1000; 1600; 2500; 4000; 6300; 10_000; 16_000;
    25_000 ]

(* The frozen list-based oracle is measured only up to this size: its
   superlinear inner scans make larger tiers take minutes, and its purpose —
   the speedup column — is served on the shared small tiers. *)
let seed_size_cap = 400

type scaling_row = {
  m_ops : int;
  m_cs : int;
  m_hash : string;
  m_attempts : int; (* placement attempts = restarts + 1 *)
  m_t : float; (* array kernel, total seconds across all attempts *)
  m_seed : float option; (* frozen oracle, seconds; None above the cap *)
}

(* Per-attempt time — what the fitted exponent is computed over. *)
let per_attempt m = m.m_t /. float_of_int m.m_attempts

(* The scaling ladder's graph and time budget at one size. *)
let scaling_graph ops =
  let g =
    Workloads.Random_dag.generate_exn
      ~spec:{ Workloads.Random_dag.default with Workloads.Random_dag.ops }
      ~seed:17 ()
  in
  (g, Dfg.Bounds.critical_path g + 2)

let measure_scaling sizes =
  List.map
    (fun ops ->
      let g, cs = scaling_graph ops in
      let attempts =
        (okd (Core.Mfs.run g (Core.Mfs.Time { cs }))).Core.Mfs.restarts + 1
      in
      let t =
        time_scaling (fun () ->
            ignore (okd (Core.Mfs.schedule g (Core.Mfs.Time { cs }))))
      in
      let t_seed =
        if ops > seed_size_cap then None
        else
          Some
            (time_scaling (fun () ->
                 ignore
                   (ok (Reference.Seed_mfs.schedule g (Core.Mfs.Time { cs })))))
      in
      { m_ops = ops; m_cs = cs; m_hash = scaling_opts_hash g ~cs;
        m_attempts = attempts; m_t = t; m_seed = t_seed })
    sizes

(* Per-pair exponent: log-log slope between consecutive sizes (None for the
   first row).  Noisy — adjacent tiers differ by small factors — so the
   headline number is [fitted_exponent], the least-squares slope of
   log(kernel_ms) against log(ops) over every size at once. *)
let pair_exponent measurements idx =
  if idx = 0 then None
  else
    let prev = List.nth measurements (idx - 1)
    and m = List.nth measurements idx in
    Some
      (log (per_attempt m /. per_attempt prev)
      /. log (float_of_int m.m_ops /. float_of_int prev.m_ops))

let fitted_exponent points =
  match points with
  | [] | [ _ ] -> None
  | _ ->
      let n = float_of_int (List.length points) in
      let xs = List.map (fun (ops, _) -> log (float_of_int ops)) points in
      let ys = List.map (fun (_, t) -> log t) points in
      let mean l = List.fold_left ( +. ) 0. l /. n in
      let xbar = mean xs and ybar = mean ys in
      let num =
        List.fold_left2
          (fun acc x y -> acc +. ((x -. xbar) *. (y -. ybar)))
          0. xs ys
      in
      let den =
        List.fold_left (fun acc x -> acc +. ((x -. xbar) ** 2.)) 0. xs
      in
      if den = 0. then None else Some (num /. den)

let scaling_fit measurements =
  fitted_exponent (List.map (fun m -> (m.m_ops, per_attempt m)) measurements)

let scaling () =
  print_endline
    "== Scaling: MFS runtime vs problem size, array vs seed list kernel ==";
  let measurements = measure_scaling scaling_sizes in
  let fit = scaling_fit measurements in
  let rows =
    List.mapi
      (fun idx m ->
        [ string_of_int m.m_ops;
          Printf.sprintf "%.2f" (m.m_t *. 1e3);
          string_of_int m.m_attempts;
          Printf.sprintf "%.2f" (per_attempt m *. 1e3);
          (match m.m_seed with
          | Some t -> Printf.sprintf "%.2f" (t *. 1e3)
          | None -> "-");
          (match m.m_seed with
          | Some t -> Printf.sprintf "%.1fx" (t /. m.m_t)
          | None -> "-");
          (match pair_exponent measurements idx with
          | None -> "-"
          | Some e -> Printf.sprintf "%.2f" e) ])
      measurements
  in
  print_string
    (Report.Table.render
       ~header:
         [ "ops"; "total (ms)"; "attempts"; "per attempt (ms)";
           "seed kernel (ms)"; "speedup"; "local exponent" ]
       rows);
  (match fit with
  | Some b -> Printf.printf "fitted exponent (least squares over all sizes): %.3f\n" b
  | None -> ());
  print_endline
    "(per attempt = total / attempts; a restart re-places every operation,\n\
     and the restart count is a workload step function, so the exponent is\n\
     fitted over the per-attempt time.  local exponent = log-log slope of\n\
     the per-attempt time between consecutive sizes, noisy by construction;\n\
     the fitted exponent is the least-squares slope over all sizes.  The\n\
     paper's bound is cubic, typical graphs sit well below it.  The seed\n\
     kernel is the frozen list-based oracle in lib/reference, measured up\n\
     to 400 ops.)";
  let oc = open_out scaling_json in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"mfs-scaling\",\n\
    \  \"workload\": \"Workloads.Random_dag.generate ~seed:17\",\n\
    \  \"cs\": \"critical_path + 2\",\n\
    \  \"timing\": \"wall clock (Unix.gettimeofday), one untimed warm-up \
     then best of 5; kernel_ms = total_ms / attempts\",\n\
    \  \"fitted_exponent\": %s,\n\
    \  \"sizes\": [\n"
    (match fit with Some b -> Printf.sprintf "%.3f" b | None -> "null");
  List.iteri
    (fun idx m ->
      Printf.fprintf oc
        "    { \"ops\": %d, \"cs\": %d, \"opts_hash\": \"%s\", \
         \"attempts\": %d, \"total_ms\": %.3f, \"kernel_ms\": %.3f, \
         \"seed_kernel_ms\": %s, \"speedup\": %s, \
         \"local_exponent\": %s }%s\n"
        m.m_ops m.m_cs m.m_hash m.m_attempts (m.m_t *. 1e3)
        (per_attempt m *. 1e3)
        (match m.m_seed with
        | Some t -> Printf.sprintf "%.3f" (t *. 1e3)
        | None -> "null")
        (match m.m_seed with
        | Some t -> Printf.sprintf "%.2f" (t /. m.m_t)
        | None -> "null")
        (match pair_exponent measurements idx with
        | None -> "null"
        | Some e -> Printf.sprintf "%.3f" e)
        (if idx = List.length measurements - 1 then "" else ","))
    measurements;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "(raw measurements written to %s)\n" scaling_json;
  print_newline ()

(* --- Gate: perf regression check against the committed baseline ---------- *)

(* The four back-end audits perfbench's compile runs after binding, on the
   MFS + column-binding design of the scaling graph at each size: the
   schedule check, the datapath check and the two post-lint passes. Each
   is a pairwise check over a unit's or a register's members, so some
   growth is inherent; the gate bounds how fast their summed time grows
   with the graph. Each audit is timed like the kernel ([time_scaling]),
   so heap growth does not inflate the small tiers and flatten the fit. *)
let audit_sizes = List.filter (fun n -> n >= 100 && n <= 1600) scaling_sizes
let audit_exponent_limit = 2.4

let measure_audits ops =
  let g, cs = scaling_graph ops in
  let p = Harness.Problem.make g in
  let config = p.Harness.Problem.config in
  let latency = config.Core.Config.functional_latency in
  let delay = Harness.Problem.delay p in
  let o = okd (Core.Mfs.run ~config g (Core.Mfs.Time { cs })) in
  let s = o.Core.Mfs.schedule in
  let dp =
    ok (Harness.Problem.colbind_datapath p.Harness.Problem.library config g s)
  in
  let ctrl = ok (Rtl.Controller.generate dp ~delay) in
  let time f =
    time_scaling ~reps:3 (fun () -> ignore (Sys.opaque_identity (f ())))
  in
  [
    time (fun () -> Core.Schedule.check_diags s);
    time (fun () ->
        Rtl.Check.datapath ~steps_overlap:(Core.Grid.steps_overlap ~latency)
          dp ~delay);
    time (fun () -> Analysis.Runner.post_schedule ~trace:o.Core.Mfs.trace s);
    time (fun () ->
        Analysis.Runner.post_rtl ~share_mutex:config.Core.Config.share_mutex
          ?latency dp ctrl ~delay);
  ]

(* Prints the audits' table and returns a failure line when their fitted
   exponent is over the limit. *)
let audit_gate () =
  let rows = List.map (fun ops -> (ops, measure_audits ops)) audit_sizes in
  let total ts = List.fold_left ( +. ) 0. ts in
  print_string
    (Report.Table.render
       ~header:
         [ "ops"; "schedule check (ms)"; "datapath check (ms)";
           "post-schedule (ms)"; "post-rtl (ms)"; "total (ms)" ]
       (List.map
          (fun (ops, ts) ->
            string_of_int ops
            :: List.map
                 (fun t -> Printf.sprintf "%.2f" (t *. 1e3))
                 (ts @ [ total ts ]))
          rows));
  match fitted_exponent (List.map (fun (ops, ts) -> (ops, total ts)) rows) with
  | Some b ->
      Printf.printf "audits' fitted exponent: %.3f (limit %.1f)\n" b
        audit_exponent_limit;
      if b > audit_exponent_limit then
        [ Printf.sprintf "audits' fitted exponent %.3f exceeds %.1f" b
            audit_exponent_limit ]
      else []
  | None -> [ "could not fit the audits' exponent" ]

(* Reads the committed BENCH_scaling.json (never writes it — CI checks the
   tree stays clean), re-measures the same sizes, and fails when the kernel
   regresses.  kernel_ms is the per-attempt time on both sides, so a change
   in the restart count shows up as a total_ms shift without corrupting the
   comparison.  Thresholds: a row fails when its fresh kernel_ms exceeds
   the committed one by more than 25% plus a 0.5 ms absolute slack (sub-ms
   rows would otherwise flake on scheduler jitter), and the freshly fitted
   exponent must stay at or below 1.15.  The audits' exponent
   ([audit_gate]) must stay at or below 2.4. *)
let gate () =
  print_endline
    "== Bench gate: kernel_ms and exponent vs committed, audit growth ==";
  let doc =
    let ic = open_in scaling_json in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    match Batch.Jsonl.parse s with
    | Ok v -> v
    | Error e ->
        Printf.eprintf "bench gate: cannot parse %s: %s\n" scaling_json e;
        exit 1
  in
  let committed =
    match Batch.Jsonl.member "sizes" doc with
    | Some (Batch.Jsonl.List rows) ->
        List.filter_map
          (fun r ->
            match (Batch.Jsonl.int "ops" r, Batch.Jsonl.float "kernel_ms" r) with
            | Some ops, Some ms -> Some (ops, ms)
            | _ -> None)
          rows
    | _ ->
        Printf.eprintf "bench gate: %s has no sizes array\n" scaling_json;
        exit 1
  in
  if committed = [] then begin
    Printf.eprintf "bench gate: no usable rows in %s\n" scaling_json;
    exit 1
  end;
  let measurements = measure_scaling (List.map fst committed) in
  let fit = scaling_fit measurements in
  let failures = ref [] in
  let rows =
    List.map2
      (fun (ops, committed_ms) m ->
        let fresh_ms = per_attempt m *. 1e3 in
        let limit = (committed_ms *. 1.25) +. 0.5 in
        let ok = fresh_ms <= limit in
        if not ok then
          failures :=
            Printf.sprintf
              "ops=%d: kernel_ms %.3f exceeds committed %.3f by more than \
               25%% (+0.5ms slack)"
              ops fresh_ms committed_ms
            :: !failures;
        [ string_of_int ops;
          Printf.sprintf "%.2f" committed_ms;
          Printf.sprintf "%.2f" fresh_ms;
          (if ok then "ok" else "REGRESSED") ])
      committed measurements
  in
  print_string
    (Report.Table.render
       ~header:[ "ops"; "committed (ms)"; "fresh (ms)"; "verdict" ]
       rows);
  (match fit with
  | Some b ->
      Printf.printf "fitted exponent: %.3f (limit 1.15)\n" b;
      if b > 1.15 then
        failures :=
          Printf.sprintf "fitted exponent %.3f exceeds 1.15" b :: !failures
  | None -> failures := "could not fit an exponent" :: !failures);
  failures := audit_gate () @ !failures;
  if !failures <> [] then begin
    List.iter (fun f -> Printf.eprintf "bench gate: FAIL: %s\n" f) !failures;
    exit 1
  end;
  print_endline "bench gate: pass";
  print_newline ()

(* --- Exact: the size-explosion contrast --------------------------------- *)

let exact () =
  print_endline
    "== Exact branch-and-bound vs MFS (the paper's size-explosion claim) ==";
  print_endline
    "(the paper positions MFS against exact/LP formulations: same answers\n\
     on small graphs, exponentially diverging runtime)";
  let rows =
    List.map
      (fun ops ->
        let spec =
          { Workloads.Random_dag.default with
            Workloads.Random_dag.ops; locality = 14 }
        in
        let g = Workloads.Random_dag.generate_exn ~spec ~seed:23 () in
        let cs = Dfg.Bounds.critical_path g + 3 in
        let t_mfs =
          time_best (fun () ->
              ignore (okd (Core.Mfs.schedule g (Core.Mfs.Time { cs }))))
        in
        let mfs_units =
          match Core.Mfs.schedule g (Core.Mfs.Time { cs }) with
          | Ok s ->
              List.fold_left (fun a (_, k) -> a + k) 0 (Core.Schedule.fu_counts s)
          | Error _ -> -1
        in
        let t0 = Unix.gettimeofday () in
        match Baselines.Exact.run ~node_budget:20_000_000 g ~cs with
        | Error _ ->
            [ string_of_int ops; string_of_int cs; "(budget blown)"; ">sec";
              string_of_int mfs_units; Printf.sprintf "%.2f" (t_mfs *. 1e3) ]
        | Ok o ->
            let t_exact = Unix.gettimeofday () -. t0 in
            [ string_of_int ops; string_of_int cs;
              Printf.sprintf "%.0f%s" o.Baselines.Exact.optimum
                (if o.Baselines.Exact.proven then "" else " (unproven)");
              Printf.sprintf "%.2f" (t_exact *. 1e3);
              string_of_int mfs_units;
              Printf.sprintf "%.2f" (t_mfs *. 1e3) ])
      [ 8; 12; 16; 20; 24; 28 ]
  in
  print_string
    (Report.Table.render
       ~header:
         [ "ops"; "T"; "exact units"; "exact ms"; "MFS units"; "MFS ms" ]
       rows);
  print_newline ()

(* --- Versus: MFSA against an FDS + binding flow ------------------------ *)

let single_function_cost g (s : Core.Schedule.t) lib =
  let dp =
    ok (Harness.Problem.colbind_datapath lib s.Core.Schedule.config g s)
  in
  (Rtl.Cost.of_datapath lib dp).Rtl.Cost.total

let versus () =
  print_endline
    "== Versus: MFSA style 1 against FDS + single-function binding ==";
  print_endline "(paper reports -4% .. +5% against published flows)";
  let rows =
    List.map
      (fun (name, g) ->
        let cs = Dfg.Bounds.critical_path g + 1 in
        let lib = Celllib.Ncr.for_graph g in
        let mfsa = mfsa_for Core.Mfsa.Unrestricted g cs in
        let fds = ok (Baselines.Fds.run g ~cs) in
        let fds_cost = single_function_cost g fds lib in
        let mfsa_cost = mfsa.Core.Mfsa.cost.Rtl.Cost.total in
        [ name;
          Printf.sprintf "%.0f" mfsa_cost;
          Printf.sprintf "%.0f" fds_cost;
          Printf.sprintf "%+.1f%%" (100. *. (mfsa_cost -. fds_cost) /. fds_cost) ])
      (Workloads.Classic.all ())
  in
  print_string
    (Report.Table.render
       ~header:[ "example"; "MFSA um2"; "FDS+bind um2"; "MFSA vs FDS" ]
       rows);
  print_newline ()

(* --- Ablations ---------------------------------------------------------- *)

let ablation () =
  print_endline "== Ablation 1: Liapunov weight sweep (EWF, T=18) ==";
  let g = Workloads.Classic.ewf () in
  let lib = Celllib.Ncr.for_graph g in
  let config = Core.Config.of_library lib in
  let sweep =
    [ ("balanced 1/1/1/1", Core.Mfsa.equal_weights);
      ("no ALU term  1/0/1/1", { Core.Mfsa.equal_weights with Core.Mfsa.w_alu = 0. });
      ("no MUX term  1/1/0/1", { Core.Mfsa.equal_weights with Core.Mfsa.w_mux = 0. });
      ("no REG term  1/1/1/0", { Core.Mfsa.equal_weights with Core.Mfsa.w_reg = 0. });
      ("REG-heavy    1/1/1/20", { Core.Mfsa.equal_weights with Core.Mfsa.w_reg = 20. }) ]
  in
  let rows =
    List.map
      (fun (label, weights) ->
        let o = okd (Core.Mfsa.run ~config ~weights ~library:lib ~cs:18 g) in
        [ label;
          Printf.sprintf "%.0f" o.Core.Mfsa.cost.Rtl.Cost.total;
          Printf.sprintf "%.0f" o.Core.Mfsa.cost.Rtl.Cost.alu_area;
          Printf.sprintf "%.0f" o.Core.Mfsa.cost.Rtl.Cost.mux_area;
          string_of_int o.Core.Mfsa.cost.Rtl.Cost.n_regs ])
      sweep
  in
  print_string
    (Report.Table.render
       ~header:[ "weights (T/ALU/MUX/REG)"; "total"; "ALU area"; "MUX area"; "REG" ]
       rows);
  print_endline "== Ablation 2: multifunction allocation on/off (tseng, T=5) ==";
  let g = Workloads.Classic.tseng () in
  let lib = Celllib.Ncr.for_graph g in
  let singles =
    { lib with
      Celllib.Library.alus =
        List.filter
          (fun a -> Celllib.Op_set.cardinal a.Celllib.Library.ops = 1)
          lib.Celllib.Library.alus }
  in
  let full = okd (Core.Mfsa.run ~library:lib ~cs:5 g) in
  let single = okd (Core.Mfsa.run ~library:singles ~cs:5 g) in
  Printf.printf
    "  full library: %.0f um2 {%s}\n  single-function only: %.0f um2 {%s}\n"
    full.Core.Mfsa.cost.Rtl.Cost.total
    (Rtl.Cost.alu_config full.Core.Mfsa.datapath)
    single.Core.Mfsa.cost.Rtl.Cost.total
    (Rtl.Cost.alu_config single.Core.Mfsa.datapath);
  print_endline "== Ablation 3: mutual-exclusion sharing on/off (cond) ==";
  let g = Workloads.Classic.cond_example () in
  let cp = Dfg.Bounds.critical_path g in
  let total s =
    List.fold_left (fun a (_, k) -> a + k) 0 (Core.Schedule.fu_counts s)
  in
  let on = okd (Core.Mfs.schedule g (Core.Mfs.Time { cs = cp })) in
  let off =
    okd
      (Core.Mfs.schedule
         ~config:{ Core.Config.default with Core.Config.share_mutex = false }
         g (Core.Mfs.Time { cs = cp }))
  in
  Printf.printf "  sharing on: %d units [%s]; sharing off: %d units [%s]\n"
    (total on) (fus on) (total off) (fus off);
  print_endline "== Ablation 4: chaining on/off (ex2) ==";
  let g = Workloads.Classic.chained_sum () in
  let plain = Dfg.Bounds.critical_path g in
  let chained = Core.Timeframe.min_cs chain_cfg g in
  Printf.printf "  minimum steps without chaining: %d; with chaining: %d\n"
    plain chained;
  print_endline "== Ablation 5: multiplexer vs bus interconnect ==";
  let rows =
    List.map
      (fun (name, g) ->
        let lib = Celllib.Ncr.for_graph g in
        let cs = Dfg.Bounds.critical_path g + 1 in
        let o = okd (Core.Mfsa.run ~library:lib ~cs g) in
        let buses = Rtl.Bus.allocate o.Core.Mfsa.datapath in
        [ name;
          Printf.sprintf "%.0f" o.Core.Mfsa.cost.Rtl.Cost.mux_area;
          string_of_int buses.Rtl.Bus.buses;
          Printf.sprintf "%.0f" (Rtl.Bus.cost buses) ])
      (Workloads.Classic.all ())
  in
  print_string
    (Report.Table.render
       ~header:[ "example"; "MUX area"; "buses"; "bus area" ]
       rows);
  print_endline
    "(wide parallel designs favour multiplexers, serial ones buses)\n"

(* --- Driver ------------------------------------------------------------ *)

let sections =
  [ ("table1", table1); ("table2", table2); ("figure1", figure1);
    ("figure2", figure2); ("speed", speed); ("scaling", scaling); ("exact", exact);
    ("versus", versus); ("ablation", ablation) ]

(* [gate] is deliberately not part of the run-everything default: it is the
   CI regression check and must not rewrite BENCH_scaling.json. *)
let extra_sections = [ ("gate", gate) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name (sections @ extra_sections) with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S (have: %s)\n" name
            (String.concat ", "
               (List.map fst (sections @ extra_sections)));
          exit 1)
    requested
