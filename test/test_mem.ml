(* Memory subsystem: array/bank grammar, address edges, port-constrained
   scheduling, the mem.* analysis family and banked simulation. *)

let test name f = Alcotest.test_case name `Quick f
let unit_delay _ = 1

let parse_exn src =
  match Dfg.Parser.parse src with
  | Ok g -> g
  | Error d -> Alcotest.failf "parse failed: %s" (Diag.to_string d)

let id g n = (Option.get (Dfg.Graph.find g n)).Dfg.Graph.id

let codes fs = List.map (fun f -> f.Analysis.Finding.diag.Diag.code) fs

(* Two loads chained apart so a single port schedules cleanly. *)
let ewf_like =
  "input u i0 i1\n\
   range i0 0 0\n\
   range i1 1 1\n\
   array S 2 bank SB\n\
   mem SB ports 1\n\
   s1 = ld S i0\n\
   s2 = ld S i1\n\
   t = + s1 u\n\
   y = + t s2\n"

(* Four independent loads of one bank feeding a balanced add tree: the
   bank's port count directly bounds the achievable latency. *)
let bunched_loads =
  "input i0 i1 i2 i3\n\
   range i0 0 0\n\
   range i1 1 1\n\
   range i2 2 2\n\
   range i3 3 3\n\
   array A 4 bank B\n\
   a0 = ld A i0\n\
   a1 = ld A i1\n\
   a2 = ld A i2\n\
   a3 = ld A i3\n\
   s0 = + a0 a1\n\
   s1 = + a2 a3\n\
   y = + s0 s1\n"

(* --- Grammar ---------------------------------------------------------- *)

let parser_roundtrip () =
  let g = parse_exn ewf_like in
  let g' = parse_exn (Dfg.Parser.to_source g) in
  Alcotest.(check int) "arrays survive" 1 (List.length (Dfg.Graph.arrays g'));
  let a = List.hd (Dfg.Graph.arrays g') in
  Alcotest.(check int) "size" 2 a.Dfg.Graph.a_size;
  Alcotest.(check string) "bank" "SB" a.Dfg.Graph.a_bank;
  Alcotest.(check int) "ports" 1 (Dfg.Graph.bank_ports g' "SB");
  Alcotest.(check int) "same node count" (Dfg.Graph.num_nodes g)
    (Dfg.Graph.num_nodes g')

let default_bank_is_array_name () =
  let g = parse_exn "input i\nrange i 0 0\narray A 4\nx = ld A i\n" in
  Alcotest.(check (list string)) "bank defaults to array name" [ "A" ]
    (Dfg.Graph.bank_names g)

(* --- Address dependence edges ----------------------------------------- *)

let address_edges () =
  let g =
    parse_exn
      "input i x y\n\
       range i 0 0\n\
       array A 2\n\
       s1 = st A i x\n\
       l1 = ld A i\n\
       s2 = st A i y\n\
       l2 = ld A i\n"
  in
  let preds n = Dfg.Graph.preds g (id g n) in
  Alcotest.(check bool) "RAW: l1 after s1" true (List.mem (id g "s1") (preds "l1"));
  Alcotest.(check bool) "WAW: s2 after s1" true (List.mem (id g "s1") (preds "s2"));
  Alcotest.(check bool) "WAR: s2 after l1" true (List.mem (id g "l1") (preds "s2"));
  Alcotest.(check bool) "RAW: l2 after s2" true (List.mem (id g "s2") (preds "l2"));
  Alcotest.(check bool) "loads unordered" false
    (List.mem (id g "l1") (preds "l2"))

let loads_have_no_mutual_edges () =
  let g = parse_exn bunched_loads in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s independent" a b)
              false
              (List.mem (id g a) (Dfg.Graph.preds g (id g b))))
        [ "a0"; "a1"; "a2"; "a3" ])
    [ "a0"; "a1"; "a2"; "a3" ]

(* --- Port-constrained scheduling -------------------------------------- *)

let min_feasible_cs ?ports g =
  let lib = Celllib.Ncr.for_graph g in
  let config =
    { (Core.Config.of_library lib) with Core.Config.mem_ports = ports }
  in
  let floor = Core.Timeframe.min_cs config g in
  let rec search cs =
    if cs > floor + 24 then Alcotest.failf "no feasible cs up to %d" (floor + 24)
    else
      match Core.Mfsa.run ~config ~library:lib ~cs g with
      | Ok o -> (cs, o)
      | Error _ -> search (cs + 1)
  in
  search floor

let doubling_ports_cuts_latency () =
  let g = parse_exn bunched_loads in
  let cs1, _ = min_feasible_cs ~ports:1 g in
  let cs2, _ = min_feasible_cs ~ports:2 g in
  Alcotest.(check bool)
    (Printf.sprintf "2 ports strictly faster (%d < %d)" cs2 cs1)
    true (cs2 < cs1)

let schedule_respects_ports s =
  List.filter
    (fun f -> f.Analysis.Finding.diag.Diag.code = "mem.bank-conflict")
    (Analysis.Sched_lint.schedule s)
  = []

(* Random banked workloads: a handful of pinned-index stores and loads over
   one or two arrays sharing a bank, consumers summing the loads. *)
let mem_graph_gen =
  QCheck2.Gen.map
    (fun (seed, ports) ->
      let rng = Random.State.make [| seed |] in
      let arrays = 1 + Random.State.int rng 2 in
      let size = 2 + Random.State.int rng 3 in
      let buf = Buffer.create 256 in
      let indices = List.init size (fun k -> Printf.sprintf "i%d" k) in
      Buffer.add_string buf
        ("input x " ^ String.concat " " indices ^ "\n");
      List.iteri
        (fun k i -> Buffer.add_string buf (Printf.sprintf "range %s %d %d\n" i k k))
        indices;
      Buffer.add_string buf (Printf.sprintf "mem B ports %d\n" ports);
      let loads = ref [] in
      for a = 0 to arrays - 1 do
        Buffer.add_string buf (Printf.sprintf "array A%d %d bank B\n" a size);
        let accesses = 1 + Random.State.int rng size in
        for k = 0 to accesses - 1 do
          Buffer.add_string buf
            (Printf.sprintf "w%d_%d = st A%d i%d x\n" a k a k);
          Buffer.add_string buf (Printf.sprintf "r%d_%d = ld A%d i%d\n" a k a k);
          loads := Printf.sprintf "r%d_%d" a k :: !loads
        done
      done;
      (match !loads with
      | [ only ] -> Buffer.add_string buf (Printf.sprintf "y = + %s x\n" only)
      | l ->
          List.iteri
            (fun k (a, b) ->
              Buffer.add_string buf (Printf.sprintf "t%d = + %s %s\n" k a b))
            (let rec pair = function
               | a :: b :: rest -> (a, b) :: pair rest
               | [ a ] -> [ (a, "x") ]
               | [] -> []
             in
             pair l);
          let ts =
            List.mapi (fun k _ -> Printf.sprintf "t%d" k)
              (let rec pair = function
                 | _ :: _ :: rest -> () :: pair rest
                 | [ _ ] -> [ () ]
                 | [] -> []
               in
               pair l)
          in
          let rec fold k = function
            | [ last ] -> Buffer.add_string buf (Printf.sprintf "y = + %s x\n" last)
            | a :: b :: rest ->
                Buffer.add_string buf (Printf.sprintf "u%d = + %s %s\n" k a b);
                fold (k + 1) (Printf.sprintf "u%d" k :: rest)
            | [] -> ()
          in
          fold 0 ts);
      parse_exn (Buffer.contents buf))
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 3))

let ports_never_oversubscribed =
  Helpers.qcheck ~count:60 "mfsa never oversubscribes bank ports"
    mem_graph_gen
    (fun g ->
      let _, o = min_feasible_cs g in
      schedule_respects_ports o.Core.Mfsa.schedule)

let mfs_time_respects_ports =
  Helpers.qcheck ~count:60 "mfs time mode never oversubscribes bank ports"
    mem_graph_gen
    (fun g ->
      let lib = Celllib.Ncr.for_graph g in
      let config = Core.Config.of_library lib in
      let floor = Core.Timeframe.min_cs config g in
      let rec search cs =
        if cs > floor + 24 then Alcotest.failf "MFS found no feasible cs"
        else
          match Core.Mfs.run ~config g (Core.Mfs.Time { cs }) with
          | Ok m -> m.Core.Mfs.schedule
          | Error _ -> search (cs + 1)
      in
      schedule_respects_ports (search floor))

(* --- Analysis family --------------------------------------------------- *)

let feasibility_port_lower_bound () =
  (* 6 accesses through one port can never fit a 4-step horizon. *)
  let g =
    parse_exn
      "input x y z i\n\
       range i 0 0\n\
       array A 1 bank B\n\
       array C 1 bank B\n\
       array D 1 bank B\n\
       sa = st A i x\n\
       sb = st C i y\n\
       sc = st D i z\n\
       la = ld A i\n\
       lb = ld C i\n\
       lc = ld D i\n\
       t = + la lb\n\
       u = + t lc\n"
  in
  let config = Core.Config.of_library (Celllib.Ncr.for_graph g) in
  let fs = Analysis.Feasibility.check ~cs:4 config g in
  Alcotest.(check bool) "mem.infeasible-ports raised" true
    (List.mem "mem.infeasible-ports" (codes fs))

let oob_constant_index () =
  let g =
    parse_exn
      "input x i\nrange i 5 5\narray A 4\nw = st A i x\ny = ld A i\n"
  in
  let fs = Analysis.Ranges.check g in
  Alcotest.(check bool) "mem.index-out-of-bounds raised" true
    (List.mem "mem.index-out-of-bounds" (codes fs))

let collide_mem_fault_detected () =
  let g = parse_exn ewf_like in
  let lib = Celllib.Ncr.for_graph g in
  let config = Core.Config.of_library lib in
  let cs = Core.Timeframe.min_cs config g in
  let m = Helpers.check_okd "mfs" (Core.Mfs.run ~config g (Core.Mfs.Time { cs })) in
  let planted =
    match Harness.Fault.collide_mem m.Core.Mfs.schedule with
    | Some s -> s
    | None -> Alcotest.fail "collide-mem found no victim pair"
  in
  Alcotest.(check bool) "pristine schedule is port-clean" true
    (schedule_respects_ports m.Core.Mfs.schedule);
  Alcotest.(check bool) "planted conflict caught" true
    (List.mem "mem.bank-conflict" (codes (Analysis.Sched_lint.schedule planted)))

let collide_mem_not_applicable () =
  let g = Helpers.diamond () in
  let m = Helpers.mfs_time g 2 in
  Alcotest.(check bool) "no mem ops -> None" true
    (Harness.Fault.collide_mem m.Core.Mfs.schedule = None)

(* --- Simulation -------------------------------------------------------- *)

let sim_equivalence_on_arrays () =
  let g = parse_exn bunched_loads in
  let cs, o = min_feasible_cs ~ports:1 g in
  ignore cs;
  let ctrl =
    Helpers.check_ok "controller"
      (Rtl.Controller.generate o.Core.Mfsa.datapath ~delay:unit_delay)
  in
  match Sim.Equiv.check_random ~runs:10 o.Core.Mfsa.datapath ctrl with
  | Ok () -> ()
  | Error d -> Alcotest.failf "equivalence failed: %s" (Diag.to_string d)

let store_then_load_through_machine () =
  let g = parse_exn ewf_like in
  let _, o = min_feasible_cs g in
  let ctrl =
    Helpers.check_ok "controller"
      (Rtl.Controller.generate o.Core.Mfsa.datapath ~delay:unit_delay)
  in
  let env = [ ("u", 7); ("i0", 0); ("i1", 1) ] in
  let r =
    Helpers.check_ok "machine" (Sim.Machine.run o.Core.Mfsa.datapath ctrl ~env)
  in
  (* Arrays are zero-initialised: s1 = s2 = 0, t = 7, y = 7. *)
  Alcotest.(check (option int)) "y" (Some 7)
    (List.assoc_opt "y" r.Sim.Machine.values)

(* --- Column binding of banked schedules -------------------------------- *)

(* MFS and list schedules are priced through the column binding; their
   memory accesses must go to bank ports, never into an ALU group. *)
let colbind_binds_banked_examples () =
  List.iter
    (fun file ->
      let g =
        Helpers.check_okd "parse"
          (Dfg.Parser.parse_file (Test_data_files.data file))
      in
      let p = Harness.Problem.make g in
      let config = p.Harness.Problem.config in
      let cs = Harness.Problem.cs p 0 in
      let delay = Harness.Problem.delay p in
      List.iter
        (fun (engine, s) ->
          let what = file ^ " " ^ engine in
          let dp =
            Helpers.check_ok what
              (Harness.Problem.colbind_datapath p.Harness.Problem.library
                 config g s)
          in
          (match Rtl.Check.datapath dp ~delay with
          | Ok () -> ()
          | Error ds ->
              Alcotest.failf "%s: %s" what
                (String.concat "; " (List.map Diag.to_string ds)));
          let ctrl =
            Helpers.check_ok what (Rtl.Controller.generate dp ~delay)
          in
          match Sim.Equiv.check_random ~runs:5 dp ctrl with
          | Ok () -> ()
          | Error d -> Alcotest.failf "%s: %s" what (Diag.to_string d))
        [
          ( "mfs",
            (Helpers.check_okd "mfs"
               (Core.Mfs.run ~config g (Core.Mfs.Time { cs })))
              .Core.Mfs.schedule );
          ( "list",
            Helpers.check_ok "list" (Baselines.List_sched.time ~config g ~cs)
          );
        ])
    [ "fir4mem.dfg"; "ewfmem.dfg" ]

(* --- Port binding under folding and mutual exclusion -------------------- *)

(* The shipped memory examples over latency x budget x port count: wherever
   MFSA succeeds, the bank ports [elaborate] binds pass the RTL audit run
   with the same latency, and the schedule audit counts no more ports than
   the bank offers. *)
let ports_bound_under_folding () =
  List.iter
    (fun file ->
      let g =
        Helpers.check_okd "parse"
          (Dfg.Parser.parse_file (Test_data_files.data file))
      in
      List.iter
        (fun (latency, budget, ports) ->
          let p = Harness.Problem.make ?latency ?ports g in
          let config = p.Harness.Problem.config in
          let delay = Harness.Problem.delay p in
          match
            Core.Mfsa.run ~config ~library:p.Harness.Problem.library
              ~cs:(Harness.Problem.cs p budget) g
          with
          | Error _ -> ()
          | Ok o ->
              let dp = o.Core.Mfsa.datapath in
              let ctrl =
                Helpers.check_ok "controller"
                  (Rtl.Controller.generate dp ~delay)
              in
              let fs =
                Analysis.Runner.post_schedule o.Core.Mfsa.schedule
                @ Analysis.Runner.post_rtl
                    ~share_mutex:config.Core.Config.share_mutex ?latency dp
                    ctrl ~delay
              in
              Alcotest.(check (list string))
                (Printf.sprintf "%s latency=%s cs=%d ports=%s" file
                   (Option.fold ~none:"none" ~some:string_of_int latency)
                   budget
                   (Option.fold ~none:"default" ~some:string_of_int ports))
                []
                (List.filter
                   (fun c -> c = "mem.port-conflict" || c = "mem.bank-conflict")
                   (codes fs)))
        (List.concat_map
           (fun latency ->
             List.concat_map
               (fun budget ->
                 List.map
                   (fun ports -> (latency, budget, ports))
                   [ None; Some 1; Some 2 ])
               [ 0; 10; 14 ])
           [ None; Some 2; Some 3; Some 4; Some 5; Some 6; Some 8 ]))
    [ "fir4mem.dfg"; "ewfmem.dfg" ]

(* Two exclusive loads of a 1-port bank in one step share its one port:
   the schedule counts one port, so the netlist must bind (and price) one. *)
let exclusive_accesses_share_a_port () =
  let g =
    parse_exn
      "input i j c x\n\
       range i 0 0\n\
       range j 1 1\n\
       array A 2 bank AB\n\
       mem AB ports 1\n\
       t = ld A i @ c\n\
       f = ld A j @ !c\n\
       ut = + t x @ c\n\
       uf = + f x @ !c\n"
  in
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_okd "mfsa"
      (Core.Mfsa.run ~config:(Core.Config.of_library lib) ~library:lib ~cs:2 g)
  in
  Alcotest.(check (list (pair string int)))
    "the schedule shares the port" [ ("mem:AB", 1); ("+", 1) ]
    (Core.Schedule.fu_counts o.Core.Mfsa.schedule);
  let dp = o.Core.Mfsa.datapath in
  Alcotest.(check (list string)) "one port, serving both loads" [ "t,f" ]
    (List.map
       (fun m ->
         String.concat ","
           (List.map
              (fun i -> (Dfg.Graph.node g i).Dfg.Graph.name)
              m.Rtl.Datapath.m_ops))
       dp.Rtl.Datapath.mems);
  Alcotest.(check int) "priced as a 1-port RAM" 1
    o.Core.Mfsa.cost.Rtl.Cost.n_mem_ports;
  let ctrl =
    Helpers.check_ok "controller" (Rtl.Controller.generate dp ~delay:unit_delay)
  in
  Alcotest.(check (list string)) "RTL audit clean" []
    (codes (Analysis.Runner.post_rtl dp ctrl ~delay:unit_delay));
  (* [share_mutex] governs ALUs only: the shared adder is flagged, the
     shared port, bound by [bind_ports] whatever the flag, is not. *)
  Alcotest.(check (list string)) "no sharing: only the ALU is flagged"
    [ "lint.alu-conflict" ]
    (codes
       (Analysis.Runner.post_rtl ~share_mutex:false dp ctrl ~delay:unit_delay));
  match Sim.Equiv.check_random ~runs:10 dp ctrl with
  | Ok () -> ()
  | Error d -> Alcotest.failf "equivalence failed: %s" (Diag.to_string d)

(* --- Explore ports axis ------------------------------------------------ *)

let explore_ports_axis () =
  let s =
    Helpers.check_okd "spec"
      (Explore.Spec.parse ~file:"t" "graph g\nports 1 2\n")
  in
  let points = Explore.Lattice.expand s in
  let ports =
    List.sort_uniq compare
      (List.map (fun p -> p.Explore.Lattice.ports) points)
  in
  Alcotest.(check int) "two port settings" 2 (List.length ports);
  Alcotest.(check bool) "descr distinguishes them" true
    (List.exists
       (fun p -> Helpers.contains ~sub:"ports=" (Explore.Lattice.descr p))
       points)

let suite =
  [
    test "parser: array/mem directives round-trip" parser_roundtrip;
    test "parser: bank defaults to array name" default_bank_is_array_name;
    test "edges: RAW/WAW/WAR per array" address_edges;
    test "edges: loads carry no mutual order" loads_have_no_mutual_edges;
    test "mfsa: doubling ports strictly cuts latency" doubling_ports_cuts_latency;
    ports_never_oversubscribed;
    mfs_time_respects_ports;
    test "feasibility: port lower bound fires" feasibility_port_lower_bound;
    test "ranges: constant OOB index flagged" oob_constant_index;
    test "fault: collide-mem caught by bank audit" collide_mem_fault_detected;
    test "fault: collide-mem needs mem ops" collide_mem_not_applicable;
    test "sim: banked datapath equivalent to golden model" sim_equivalence_on_arrays;
    test "sim: store/load round-trip through the machine" store_then_load_through_machine;
    test "colbind: banked MFS/list schedules bind and simulate"
      colbind_binds_banked_examples;
    test "elaborate: ports bound under folding, audit-clean"
      ports_bound_under_folding;
    test "elaborate: exclusive accesses share one port"
      exclusive_accesses_share_a_port;
    test "explore: ports axis expands distinct points" explore_ports_axis;
  ]
