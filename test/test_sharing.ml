(* One sharing model: two ops share a unit unless they clash
   ([Rtl.Lifetime.clash]). Under functional pipelining with latency L, steps
   t and t+kL run at once, but in different overlapped iterations, each
   with its own guard values; so mutual exclusion lets two ops share a unit
   only at the same step. Every sharing site must keep to that. *)

let test name f = Alcotest.test_case name `Quick f

let parse_exn text = Helpers.check_ok "parse" (Dfg.Parser.parse text)

(* t and f are exclusive, and at latency 2 the steps 1 and 3 fold onto
   one cell; at those steps they run in different iterations, so they may
   not share a multiplier there. *)
let unit_repro () =
  parse_exn
    "input i j x c\n\
     t = * i x @ c\n\
     k = + j x\n\
     k2 = - k x\n\
     f = * k2 x @ !c\n"

(* The same shape with two guarded loads of a 1-port bank. *)
let mem_repro () =
  parse_exn
    "input i j x c\n\
     array A 8 bank AB\n\
     mem AB ports 1\n\
     t = ld A i @ c\n\
     k = add j x\n\
     k2 = sub k x\n\
     f = ld A k2 @ !c\n"

let latency_cfg l =
  { Core.Config.default with Core.Config.functional_latency = Some l }

let id g name = (Option.get (Dfg.Graph.find g name)).Dfg.Graph.id
let codes ds = List.map (fun d -> d.Diag.code) ds
let unit_delay _ = 1

let unfold_diags ~latency s =
  codes
    (Core.Schedule.check_diags
       (Helpers.check_ok "unfold" (Core.Pipeline.unfold s ~latency ())))

(* The repros with t and f at 1 and 3: one folded cell at latency 2, in
   different iterations. *)
let planted_start g =
  let start = Array.make (Dfg.Graph.num_nodes g) 0 in
  List.iter
    (fun (v, s) -> start.(id g v) <- s)
    [ ("t", 1); ("k", 1); ("k2", 2); ("f", 3) ];
  start

let repro_pinned ~klass repro () =
  let g = repro () in
  let s = (Helpers.mfs_time ~config:(latency_cfg 2) g 4).Core.Mfs.schedule in
  Alcotest.(check (pair int int))
    "t moves to step 2, f stays at 3" (2, 3)
    (s.Core.Schedule.start.(id g "t"), s.Core.Schedule.start.(id g "f"));
  Alcotest.(check int) ("still one " ^ klass ^ " unit") 1
    (Helpers.fu_count s klass);
  Alcotest.(check (list string)) "unfolds clean" [] (unfold_diags ~latency:2 s)

let planted_port_share_unfolds_into_conflict () =
  let g = mem_repro () in
  let s =
    Core.Schedule.make
      ~col:(Array.make (Dfg.Graph.num_nodes g) 1)
      ~config:(latency_cfg 2) ~cs:4 g (planted_start g)
  in
  Alcotest.(check bool) "the folded audit rejects it" true
    (List.mem
       (Core.Schedule.Fu_conflict (id g "t", id g "f"))
       (Core.Schedule.violations s));
  let unfolded =
    Helpers.check_ok "unfold" (Core.Pipeline.unfold s ~latency:2 ())
  in
  Alcotest.(check bool) "unfolds into a port conflict on mem:AB" true
    (List.exists
       (fun d ->
         d.Diag.code = "schedule.fu-conflict"
         && Helpers.contains ~sub:"share mem:AB unit 1" (Diag.message d))
       (Core.Schedule.check_diags unfolded))

let replicate_keeps_banks () =
  let g = mem_repro () in
  let g3 =
    Helpers.check_ok "replicate" (Core.Pipeline.replicate ~copies:3 g)
  in
  Alcotest.(check (list string)) "one bank for every instance" [ "AB" ]
    (Dfg.Graph.bank_names g3);
  Alcotest.(check int) "with its declared ports" 1
    (Dfg.Graph.bank_ports g3 "AB");
  Alcotest.(check bool) "no address edges between instances" true
    (not (List.mem (id g3 "t_i1") (Dfg.Graph.preds g3 (id g3 "f_i2"))))

(* Under latency 2, one multiplier holding t@1 and f@3, and one port
   holding the loads at the same steps: both audits must object. *)
let planted_datapaths_flagged () =
  let kind_for lib k =
    List.find
      (fun a -> Celllib.Op_set.mem k a.Celllib.Library.ops)
      lib.Celllib.Library.alus
  in
  let elaborate ?latency g assignments =
    let lib = Celllib.Ncr.for_graph g in
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate ?latency g ~start:(planted_start g)
         ~delay:unit_delay ~cs:4
         ~assignments:
           (List.map
              (fun (k, ops) -> (kind_for lib k, List.map (id g) ops))
              assignments))
  in
  let lint dp =
    codes
      (Analysis.Finding.diags
         (Analysis.Rtl_lint.check ~latency:2 dp
            (Rtl.Controller.make dp ~delay:unit_delay)
            ~delay:unit_delay))
  in
  let g = unit_repro () in
  let dp =
    elaborate g
      [ (Dfg.Op.Mul, [ "t"; "f" ]); (Dfg.Op.Add, [ "k" ]);
        (Dfg.Op.Sub, [ "k2" ]) ]
  in
  (match
     Rtl.Check.datapath
       ~steps_overlap:(Rtl.Lifetime.steps_overlap ~latency:(Some 2))
       dp ~delay:unit_delay
   with
  | Ok () -> Alcotest.fail "check.alu-overlap not reported"
  | Error ds ->
      Alcotest.(check (list string)) "datapath check" [ "check.alu-overlap" ]
        (codes ds));
  Alcotest.(check bool) "lint.alu-conflict" true
    (List.mem "lint.alu-conflict" (lint dp));
  let g = mem_repro () in
  let assignments = [ (Dfg.Op.Add, [ "k" ]); (Dfg.Op.Sub, [ "k2" ]) ] in
  let ports dp = List.length dp.Rtl.Datapath.mems in
  Alcotest.(check int) "bound under latency 2: two ports" 2
    (ports (elaborate ~latency:2 g assignments));
  let dp = elaborate g assignments in
  Alcotest.(check int) "bound without a latency: one port" 1 (ports dp);
  Alcotest.(check bool) "mem.port-conflict" true
    (List.mem "mem.port-conflict" (lint dp))

(* Guarded DAGs over + - * < at latency 2 or 3. *)
let guarded_pipelined_gen =
  QCheck2.Gen.map
    (fun (seed, ops, latency) ->
      ( Workloads.Random_dag.generate_exn
          ~spec:
            { Workloads.Random_dag.default with
              Workloads.Random_dag.ops;
              kinds = [ Dfg.Op.Add; Dfg.Op.Sub; Dfg.Op.Mul; Dfg.Op.Lt ];
              guard_prob = 0.5 }
          ~seed (),
        latency ))
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 12 24) (int_range 2 3))

let schedules_unfold_clean =
  Helpers.qcheck "guarded, pipelined: MFS and list schedules unfold clean"
    guarded_pipelined_gen (fun (g, latency) ->
      let config = latency_cfg latency in
      let cs = Core.Timeframe.min_cs config g + 1 in
      let mfs =
        Helpers.check_ok "MFS"
          (Core.Mfs.schedule ~config g (Core.Mfs.Time { cs }))
      in
      let listed =
        Helpers.check_ok "list" (Baselines.List_sched.time ~config g ~cs)
      in
      unfold_diags ~latency mfs = [] && unfold_diags ~latency listed = [])

(* Checked on the cells themselves, independently of [Lifetime.clash]. *)
let mfsa_units_stay_in_one_iteration =
  Helpers.qcheck "guarded, pipelined: no MFSA unit shared across iterations"
    guarded_pipelined_gen (fun (g, latency) ->
      let library = Celllib.Ncr.for_graph g in
      let config =
        { (Core.Config.of_library library) with
          Core.Config.functional_latency = Some latency }
      in
      let cs = Core.Timeframe.min_cs config g + 1 in
      let dp =
        (Helpers.check_ok "MFSA" (Core.Mfsa.run ~config ~library ~cs g))
          .Core.Mfsa.datapath
      in
      let delay i =
        Core.Config.delay config (Dfg.Graph.node g i).Dfg.Graph.kind
      in
      let cells span i =
        List.init (span i) (fun k -> dp.Rtl.Datapath.start.(i) + k)
      in
      let across span ops =
        List.exists
          (fun i ->
            List.exists
              (fun j ->
                i < j
                && List.exists
                     (fun x ->
                       List.exists
                         (fun y -> x <> y && (x - y) mod latency = 0)
                         (cells span j))
                     (cells span i))
              ops)
          ops
      in
      List.for_all
        (fun a ->
          not (across (Rtl.Check.alu_span a ~delay) a.Rtl.Datapath.a_ops))
        dp.Rtl.Datapath.alus
      && List.for_all
           (fun m -> not (across delay m.Rtl.Datapath.m_ops))
           dp.Rtl.Datapath.mems)

(* [Grid.free_at] is [Lifetime.clash] in cell form: on random placements
   (spans 1-3, latencies 1-4 or none, arms giving some exclusive pairs),
   every candidate position is free exactly when it clashes with no
   occupant of its column. *)
let grid_agrees_with_clash =
  let gen =
    QCheck2.Gen.(
      let* horizon = int_range 4 10 in
      let* latency = opt (int_range 1 4) in
      let* placed =
        list_size (int_range 0 8)
          (quad (int_range 1 2) (int_range 1 horizon) (int_range 1 3)
             (int_range 0 2))
      in
      let* arm = int_range 0 2 in
      return (horizon, latency, placed, arm))
  in
  Helpers.qcheck ~count:300 "grid: free_at agrees with Lifetime.clash" gen
    (fun (horizon, latency, placed, arm) ->
      let grid = Core.Grid.create ~steps:horizon ~cols:2 in
      (* Arms 1 and 2 are the two sides of one condition; 0 is unguarded. *)
      let placed =
        List.mapi
          (fun op (col, step, span, arm) ->
            (op, col, min step (horizon - span + 1), span, arm))
          placed
      in
      List.iter
        (fun (op, col, step, span, _) ->
          Core.Grid.place grid ~op ~col ~step ~span)
        placed;
      let op = List.length placed in
      let arms =
        Array.of_list (List.map (fun (_, _, _, _, a) -> a) placed @ [ arm ])
      in
      let exclusive a b = arms.(a) + arms.(b) = 3 in
      let steps_overlap = Core.Grid.steps_overlap ~latency in
      List.for_all
        (fun (col, step, span) ->
          Core.Grid.free_at grid ~exclusive ~latency ~op ~span ~col ~step
          = List.for_all
              (fun (o, c, s, sp, _) ->
                c <> col
                || not
                     (Rtl.Lifetime.clash ~steps_overlap
                        ~exclusive:(exclusive op o) step span s sp))
              placed)
        (List.concat_map
           (fun col ->
             List.concat_map
               (fun span ->
                 List.init (horizon - span + 1) (fun k -> (col, k + 1, span)))
               [ 1; 2; 3 ])
           [ 1; 2 ]))

let suite =
  [
    test "unit repro: exclusive mults stay in one iteration"
      (repro_pinned ~klass:"*" unit_repro);
    test "memory repro: schedule unfolds clean"
      (repro_pinned ~klass:"mem:AB" mem_repro);
    test "planted port share unfolds into a conflict"
      planted_port_share_unfolds_into_conflict;
    test "replicate keeps arrays in their banks" replicate_keeps_banks;
    test "planted cross-iteration sharing is flagged" planted_datapaths_flagged;
    schedules_unfold_clean;
    mfsa_units_stay_in_one_iteration;
    grid_agrees_with_clash;
  ]
