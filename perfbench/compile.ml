(* The two compile workloads. Each compile takes DFG source text through
   the whole flow and checks every artefact it produces:

     parse -> CSE -> range analysis -> pre-lint -> schedule -> schedule
     check -> binding cost -> controller -> datapath check -> post-lint ->
     Verilog -> simulation against the golden model

   paper-suite schedules and binds with MFSA (both design styles);
   dag-ladder schedules with MFS and binds one single-function ALU per
   schedule column, the path explore's [engine mfs] points and the
   harness fallback take. *)

type engine = Mfsa of Core.Mfsa.style | Mfs

type design = {
  name : string;
  group : string;  (** Size group for the scaling fits. *)
  text : string;  (** DFG source: all the flow is given. *)
  widths : bool;  (** Width-aware: ranges feed delays, cost and Verilog. *)
  slack : int;  (** Time budget = critical path + [slack]. *)
  engine : engine;
  sim_seed : int;
}

type product = {
  area : float;  (** [Rtl.Cost] total, um^2. *)
  digest : Digest.t;  (** Of the emitted Verilog. *)
  ops : int;
}

let diag r = Result.map_error Diag.to_string r
let diags ds = String.concat "; " (List.map Diag.to_string ds)

let findings what fs =
  match Analysis.Finding.errors fs with
  | [] -> Ok ()
  | errs ->
      Error (what ^ ": " ^ diags (Analysis.Finding.diags errs))

(* Time [f] as span [name], counting the minor-heap words it allocates. *)
let with_alloc name f =
  Span.with_ name (fun () ->
      let w0 = Gc.minor_words () in
      let r = f () in
      Span.count (name ^ ".kwords") ((Gc.minor_words () -. w0) /. 1e3);
      r)

let compile d =
  let ( let* ) = Result.bind in
  let* g = Span.with_ "dfg.parse" (fun () -> diag (Dfg.Parser.parse d.text)) in
  let* g =
    Span.with_ "dfg.cse" (fun () ->
        let r = Dfg.Cse.eliminate g in
        Result.iter
          (fun g' ->
            Span.count "dfg.cse.removed"
              (float_of_int (Dfg.Graph.num_nodes g - Dfg.Graph.num_nodes g')))
          r;
        r)
  in
  let facts =
    Span.with_ "analysis.ranges" (fun () ->
        let f = Analysis.Ranges.analyze g in
        Span.count "analysis.ranges.passes"
          (float_of_int (Analysis.Ranges.passes f));
        f)
  in
  let lib = Celllib.Ncr.for_graph g in
  let config = Core.Config.of_library lib in
  let widths, config =
    if d.widths then
      ( Some (Analysis.Ranges.width_of facts),
        { config with
          Core.Config.node_delay = Analysis.Ranges.node_delays lib g facts } )
    else (None, config)
  in
  let cs = Core.Timeframe.min_cs config g + d.slack in
  let pre =
    Span.with_ "analysis.pre" (fun () ->
        let pre, pre_ms = Analysis.Runner.pre_timed ~cs config g in
        List.iter
          (fun (pass, ms) ->
            let pass = String.map (function '-' -> '_' | c -> c) pass in
            Span.add_time ("analysis.pre." ^ pass) (ms /. 1e3))
          pre_ms;
        pre)
  in
  let* () = findings "pre-lint" pre in
  let* sched, dp, trace =
    match d.engine with
    | Mfsa style ->
        let* o =
          with_alloc "core.mfsa" (fun () ->
              let r = Core.Mfsa.run ~config ~style ~library:lib ~cs g in
              Result.iter
                (fun (o : Core.Mfsa.outcome) ->
                  let n p = float_of_int (List.length (List.filter p o.iterations)) in
                  Span.count "core.mfsa.iterations" (n (fun _ -> true));
                  Span.count "core.mfsa.fresh_alus"
                    (n (fun it -> it.Core.Mfsa.it_fresh));
                  Span.count "core.mfsa.widened_alus"
                    (n (fun it -> it.Core.Mfsa.it_widened)))
                r;
              diag r)
        in
        Ok (o.Core.Mfsa.schedule, o.Core.Mfsa.datapath, None)
    | Mfs ->
        let* o =
          with_alloc "core.mfs" (fun () ->
              let r = Core.Mfs.run ~config g (Core.Mfs.Time { cs }) in
              Result.iter
                (fun (o : Core.Mfs.outcome) ->
                  Span.count "core.mfs.attempts" (float_of_int (o.restarts + 1));
                  Span.count "core.mfs.widenings" (float_of_int o.widenings))
                r;
              diag r)
        in
        let* dp =
          Span.with_ "rtl.elaborate" (fun () ->
              Harness.Driver.colbind_datapath lib config g o.Core.Mfs.schedule)
        in
        Ok (o.Core.Mfs.schedule, dp, Some o.Core.Mfs.trace)
  in
  let* () =
    match Span.with_ "core.schedule_check" (fun () -> Core.Schedule.check_diags sched) with
    | [] -> Ok ()
    | ds -> Error ("schedule check: " ^ diags ds)
  in
  let cost =
    Span.with_ "rtl.elaborate" (fun () ->
        let c = Rtl.Cost.of_datapath ?widths lib dp in
        Span.count "rtl.alus" (float_of_int c.Rtl.Cost.n_alus);
        Span.count "rtl.regs" (float_of_int c.Rtl.Cost.n_regs);
        Span.count "rtl.mux_inputs" (float_of_int c.Rtl.Cost.n_mux_inputs);
        c)
  in
  let delay i = Core.Config.delay config (Dfg.Graph.node g i).Dfg.Graph.kind in
  let* ctrl =
    Span.with_ "rtl.controller" (fun () ->
        let r = Rtl.Controller.generate dp ~delay in
        Result.iter
          (fun c ->
            Span.count "rtl.controller.micros"
              (float_of_int (List.length c.Rtl.Controller.micros)))
          r;
        r)
  in
  let* () =
    Span.with_ "rtl.check" (fun () ->
        Rtl.Check.datapath
          ~style2:(d.engine = Mfsa Core.Mfsa.No_self_loop)
          ~steps_overlap:
            (Core.Grid.steps_overlap
               ~latency:config.Core.Config.functional_latency)
          dp ~delay)
    |> Result.map_error (fun ds -> "datapath check: " ^ diags ds)
  in
  let* () =
    Span.with_ "analysis.post" (fun () ->
        let fs =
          Analysis.Runner.post_schedule ?trace sched
          @ Analysis.Runner.post_rtl ~share_mutex:config.Core.Config.share_mutex
              ?latency:config.Core.Config.functional_latency dp ctrl ~delay
        in
        Span.count "analysis.post.findings" (float_of_int (List.length fs));
        findings "post-lint" fs)
  in
  let verilog =
    Span.with_ "rtl.verilog" (fun () ->
        let v = Rtl.Verilog.emit ?widths dp ctrl in
        Span.count "rtl.verilog.bytes" (float_of_int (String.length v));
        v)
  in
  let* () =
    Span.with_ "sim.equiv" (fun () ->
        let runs = 20 in
        let* () = diag (Sim.Equiv.check_random ~runs ~seed:d.sim_seed dp ctrl) in
        Span.count "sim.equiv.vectors" (float_of_int runs);
        match widths with
        | None -> Ok ()
        | Some widths ->
            let* () =
              diag (Sim.Equiv.check_narrowing ~runs ~seed:d.sim_seed ~widths dp ctrl)
            in
            (* Five directed profiles precede the random draws. *)
            Span.count "sim.equiv.vectors" (float_of_int (runs + 5));
            Ok ())
  in
  Ok
    {
      area = cost.Rtl.Cost.total;
      digest = Digest.string verilog;
      ops = Dfg.Graph.num_nodes g;
    }

(* --- Inputs -------------------------------------------------------------- *)

(* The paper's Table-2 designs as shipped: ten built-in graphs rendered to
   source, and the example files' bytes. Only the two files whose every
   value carries a declared 8-bit range are compiled width-aware. *)
let paper_suite ~seed () =
  let builtin =
    Workloads.Classic.all ()
    @ [
        ("diffeq", Workloads.Classic.diffeq ());
        ("facet", Workloads.Classic.facet ());
        ("biquad", Workloads.Classic.biquad ());
        ("cond", Workloads.Classic.cond_example ());
      ]
    |> List.map (fun (name, g) -> (name, Dfg.Parser.to_source g, false))
  in
  let files =
    List.map
      (fun name ->
        let path = Filename.concat "examples/data" (name ^ ".dfg") in
        ( name,
          In_channel.with_open_bin path In_channel.input_all,
          name = "ewf8" || name = "diffeq8" ))
      [ "ewf8"; "diffeq8"; "fir4"; "fir4mem"; "ewfmem" ]
  in
  List.concat_map
    (fun (name, text, widths) ->
      List.map
        (fun (style, tag) ->
          { name = name ^ "/" ^ tag; group = name; text; widths; slack = 1;
            engine = Mfsa style; sim_seed = seed })
        [ (Core.Mfsa.Unrestricted, "s1"); (Core.Mfsa.No_self_loop, "s2") ])
    (builtin @ files)

(* Each tier holds 800 operations: four 200-op graphs, two of 400, one of
   800. Equal work per tier makes a superlinear layer stand out, and the
   smaller graphs average out part of the seed-to-seed spread in area. *)
let ladder_tiers = [ (200, 4); (400, 2); (800, 1) ]

(* Seeded random DAGs (default spec: [+ - *], 4 inputs, locality 8); the
   budget rule is the kernel scaling bench's. *)
let dag_ladder ~seed () =
  List.concat_map
    (fun (ops, count) ->
      List.init count (fun j ->
          let g =
            Workloads.Random_dag.generate_exn
              ~spec:{ Workloads.Random_dag.default with ops }
              ~seed:((seed * 10_000) + (ops * 10) + j) ()
          in
          { name = Printf.sprintf "dag%d.%d" ops j; group = string_of_int ops;
            text = Dfg.Parser.to_source g; widths = false; slack = 2;
            engine = Mfs; sim_seed = seed }))
    ladder_tiers

(* --- Passes -------------------------------------------------------------- *)

type layer_sample = {
  l_time : (string * float) list;  (** Self seconds per span name. *)
  l_count : (string * float) list;
}

type pass = {
  p_ms : float;
  p_out : (product, string) result list;  (** One per design, in order. *)
  p_layers : (string * layer_sample) list;  (** Per design, when traced. *)
  p_minor_kwords : float;
  p_major : int;
}

let run_pass ~index designs =
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let layers = ref [] in
  let t0 = Unix.gettimeofday () in
  let out =
    Span.with_ "pass" ~args:[ ("pass", Batch.Jsonl.Int index) ] (fun () ->
        List.map
          (fun d ->
            let r =
              Span.with_ "compile" ~args:[ ("design", Batch.Jsonl.String d.name) ]
                (fun () ->
                  try compile d
                  with e -> Error ("exception: " ^ Printexc.to_string e))
            in
            let l_time, l_count = Span.take () in
            layers := (d.group, { l_time; l_count }) :: !layers;
            Result.map_error (fun m -> d.name ^ ": " ^ m) r)
          designs)
  in
  let t1 = Unix.gettimeofday () in
  {
    p_ms = (t1 -. t0) *. 1e3;
    p_out = out;
    p_layers = List.rev !layers;
    p_minor_kwords = (Gc.minor_words () -. w0) /. 1e3;
    p_major = (Gc.quick_stat ()).Gc.major_collections - m0;
  }

(* --- Measurement --------------------------------------------------------- *)

type report = {
  attempted : int;
  failures : string list;
  e2e : (string * float) list;
  layers : (string * float) list;
}

(* Set-ups per run; [setup_s] is their median. *)
let setups = 3

let layer_names =
  [ "dfg.parse"; "dfg.cse"; "analysis.ranges"; "analysis.pre.dfg_lint";
    "analysis.pre.feasibility"; "analysis.pre.widths"; "core.mfs";
    "core.mfsa"; "core.schedule_check"; "rtl.elaborate"; "rtl.controller";
    "rtl.check"; "analysis.post"; "rtl.verilog"; "sim.equiv" ]

(* A layer's self time in one pass (or one group of it), in ms, and its
   counters, summed over compiles. *)
let sum_layers samples =
  let tbl = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      List.iter
        (fun (name, sec) ->
          if name <> "pass" && name <> "compile" then add (name ^ ".ms") (sec *. 1e3))
        s.l_time;
      List.iter (fun (name, v) -> add name v) s.l_count)
    samples;
  tbl

let medians_of tables =
  let keys = Hashtbl.create 64 in
  List.iter (Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ())) tables;
  Hashtbl.fold
    (fun k () acc ->
      let vs =
        List.map (fun t -> Option.value ~default:0. (Hashtbl.find_opt t k)) tables
      in
      (k, Stat.median vs) :: acc)
    keys []

(* MFSA on the scaling ladder: its cost grows much faster than MFS's, so
   it gets its own small seeded sizes. *)
let mfsa_ladder ~seed =
  let sizes = [ 25; 50; 100 ] in
  let points =
    List.mapi
      (fun i ops ->
        let g =
          Workloads.Random_dag.generate_exn
            ~spec:{ Workloads.Random_dag.default with ops }
            ~seed:((seed * 1000) + 100 + i) ()
        in
        let lib = Celllib.Ncr.for_graph g in
        let config = Core.Config.of_library lib in
        let cs = Core.Timeframe.min_cs config g + 2 in
        let runs =
          List.init 3 (fun _ ->
              Span.with_ "ladder.mfsa" ~args:[ ("ops", Batch.Jsonl.Int ops) ]
                (fun () ->
                  let t0 = Unix.gettimeofday () in
                  let r = Core.Mfsa.run ~config ~library:lib ~cs g in
                  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
                  match r with
                  | Ok o -> Ok (ms, List.length o.Core.Mfsa.iterations)
                  | Error d -> Error (Printf.sprintf "ladder mfsa %d ops: %s" ops (Diag.to_string d))))
        in
        (ops, runs))
      sizes
  in
  ignore (Span.take ());
  let failures =
    List.concat_map (fun (_, rs) -> List.filter_map (function Error m -> Some m | Ok _ -> None) rs) points
  in
  let ok = List.map (fun (ops, rs) -> (ops, List.filter_map Result.to_option rs)) points in
  let metrics =
    List.concat_map
      (fun (ops, rs) ->
        [ (Printf.sprintf "ladder.mfsa.n%d.ms" ops, Stat.median (List.map fst rs));
          ( Printf.sprintf "ladder.mfsa.n%d.iterations" ops,
            Stat.median (List.map (fun (_, it) -> float_of_int it) rs) ) ])
      ok
  in
  let slope =
    Stat.loglog_slope
      (List.map (fun (ops, rs) -> (float_of_int ops, Stat.median (List.map fst rs))) ok)
  in
  (List.length sizes * 3, failures, ("ladder.mfsa.exponent", slope) :: metrics)

let measure ~inputs ~ladder ~seed ~seconds ~trace =
  let attempted = ref 0 and failures = ref [] in
  let fail m = failures := m :: !failures in
  let tally p =
    attempted := !attempted + List.length p.p_out;
    List.iter (function Error m -> fail m | Ok _ -> ()) p.p_out
  in
  (* Every pass must reproduce the warm-up's area and Verilog, design by
     design. A compile that differs counts as failed. *)
  let check_same designs (reference : pass) p =
    List.iter2
      (fun (d : design) (a, b) ->
        match (a, b) with
        | Ok a, Ok b when a.area <> b.area || a.digest <> b.digest ->
            fail (d.name ^ ": differs from the warm-up pass")
        | _ -> ())
      designs
      (List.combine reference.p_out p.p_out)
  in
  let setup () =
    let t0 = Unix.gettimeofday () in
    let designs = inputs ~seed () in
    let warm = run_pass ~index:(-1) designs in
    ignore (Span.take ());
    (Unix.gettimeofday () -. t0, designs, warm)
  in
  let runs = List.init setups (fun _ -> setup ()) in
  let _, designs, warm = List.nth runs (setups - 1) in
  List.iter
    (fun (_, _, w) ->
      tally w;
      check_same designs warm w)
    runs;
  if trace then Span.start ~run:(Printf.sprintf "seed%d-pid%d" seed (Unix.getpid ()));
  let traced = ref [] and untraced = ref [] in
  let t0 = Unix.gettimeofday () in
  let rec loop i =
    if Unix.gettimeofday () -. t0 < seconds || (trace && i < 2) then begin
      (* Traced runs alternate traced and bare passes, at least one of
         each; the difference of their medians is the tracing overhead. *)
      let on = trace && i mod 2 = 0 in
      Span.enabled := on;
      let p = run_pass ~index:i designs in
      Span.enabled := false;
      tally p;
      check_same designs warm p;
      if on then traced := p :: !traced else untraced := p :: !untraced;
      loop (i + 1)
    end
  in
  loop 0;
  let window = Unix.gettimeofday () -. t0 in
  let timed = !traced @ !untraced in
  Printf.eprintf "%d passes of %d compiles in %.1fs\n%!" (List.length timed)
    (List.length designs) window;
  let compiles = List.fold_left (fun n p -> n + List.length p.p_out) 0 timed in
  let ms ps = List.map (fun p -> p.p_ms) ps in
  let area =
    List.fold_left (fun a -> function Ok r -> a +. r.area | Error _ -> a) 0. warm.p_out
  in
  let e2e =
    [
      ("setup_s", Stat.median (List.map (fun (s, _, _) -> s) runs));
      ("flow_ms.p50", Stat.median (ms !untraced));
      ("flow_ms.p90", Stat.quantile 0.9 (ms !untraced));
      ("area_um2", area);
      ("peak_rss_mb", Stat.peak_rss_mb "self");
      ("ops_per_s", float_of_int compiles /. window);
    ]
  in
  let layers =
    if not trace then []
    else begin
      Span.enabled := true;
      let l_attempted, l_failures, ladder_metrics =
        if ladder then mfsa_ladder ~seed else (0, [], [])
      in
      attempted := !attempted + l_attempted;
      List.iter fail l_failures;
      let per_pass = List.map (fun p -> sum_layers (List.map snd p.p_layers)) !traced in
      (* Scaling: each layer's mean ms per compile of a size group, fitted
         log-log against the group's operation count. *)
      let sizes =
        List.fold_left2
          (fun acc (d : design) r ->
            match r with
            | Ok r when not (List.mem_assoc d.group acc) -> (d.group, float_of_int r.ops) :: acc
            | _ -> acc)
          [] designs warm.p_out
      in
      let group_ms =
        List.map
          (fun (group, ops) ->
            let n = List.length (List.filter (fun (d : design) -> d.group = group) designs) in
            let tables =
              List.map
                (fun p ->
                  sum_layers
                    (List.filter_map
                       (fun (g, s) -> if g = group then Some s else None)
                       p.p_layers))
                !traced
            in
            (ops, List.map (fun (k, v) -> (k, v /. float_of_int n)) (medians_of tables)))
          sizes
      in
      let exponents =
        List.map
          (fun layer ->
            let key = layer ^ ".ms" in
            ( layer ^ ".exponent",
              Stat.loglog_slope
                (List.filter_map
                   (fun (ops, m) -> Option.map (fun v -> (ops, v)) (List.assoc_opt key m))
                   group_ms) ))
          layer_names
      in
      (* The GC figures come from the bare passes, so the spans' own
         allocation is not in them. *)
      medians_of per_pass @ exponents @ ladder_metrics
      @ [
          ("gc.minor_kwords", Stat.median (List.map (fun p -> p.p_minor_kwords) !untraced));
          ( "gc.major_collections",
            Stat.median (List.map (fun p -> float_of_int p.p_major) !untraced) );
          ("trace.overhead_ms", Stat.median (ms !traced) -. Stat.median (ms !untraced));
        ]
    end
  in
  { attempted = !attempted; failures = List.rev !failures; e2e; layers }
