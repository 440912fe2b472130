(* Incremental rescheduling (Core.Mfs.reschedule): validity, cone locality
   (the op-touch counter), and cost agreement against full rescheduling on
   200 random single-edit deltas.  The deltas are generated with
   Workloads.Prng from fixed seeds — fully deterministic, no qcheck
   shrinking — so CI sees the exact same 200 probes every run. *)

let test name f = Alcotest.test_case name `Quick f

let rows g =
  List.map
    (fun (nd : Dfg.Graph.node) ->
      ( nd.Dfg.Graph.name, nd.Dfg.Graph.kind, nd.Dfg.Graph.args,
        nd.Dfg.Graph.guards ))
    (Dfg.Graph.nodes g)

let units s =
  List.fold_left (fun a (_, k) -> a + k) 0 (Core.Schedule.fu_counts s)

(* One random single edit: remove a sink, add a sink, flip an op's class, or
   rewire one operand to an earlier value.  Returns the edited graph and the
   delta list a caller would declare. *)
let edit rng g =
  let nodes = Dfg.Graph.nodes g in
  let values =
    Dfg.Graph.inputs g
    @ List.map (fun (n : Dfg.Graph.node) -> n.Dfg.Graph.name) nodes
  in
  match Workloads.Prng.int rng 4 with
  | 0 ->
      let sinks = Dfg.Graph.sinks g in
      let i = List.nth sinks (Workloads.Prng.int rng (List.length sinks)) in
      let nm = (Dfg.Graph.node g i).Dfg.Graph.name in
      ( Dfg.Graph.of_ops ~inputs:(Dfg.Graph.inputs g)
          (List.filter (fun (n, _, _, _) -> n <> nm) (rows g)),
        [ Core.Mfs.Op_removed nm ] )
  | 1 ->
      let a = Workloads.Prng.pick rng values in
      let b = Workloads.Prng.pick rng values in
      ( Dfg.Graph.of_ops ~inputs:(Dfg.Graph.inputs g)
          (rows g @ [ ("zz_new", Dfg.Op.Add, [ a; b ], []) ]),
        [ Core.Mfs.Op_added "zz_new" ] )
  | 2 ->
      let nd = Workloads.Prng.pick rng nodes in
      let kind' =
        match nd.Dfg.Graph.kind with
        | Dfg.Op.Add -> Dfg.Op.Mul
        | Dfg.Op.Mul -> Dfg.Op.Add
        | Dfg.Op.Sub -> Dfg.Op.Mul
        | k -> k
      in
      ( Dfg.Graph.of_ops ~inputs:(Dfg.Graph.inputs g)
          (List.map
             (fun (n, k, a, gd) ->
               if n = nd.Dfg.Graph.name then (n, kind', a, gd)
               else (n, k, a, gd))
             (rows g)),
        [ Core.Mfs.Op_changed nd.Dfg.Graph.name ] )
  | _ -> (
      let nd = Workloads.Prng.pick rng nodes in
      let earlier =
        Dfg.Graph.inputs g
        @ List.filter_map
            (fun (n : Dfg.Graph.node) ->
              if n.Dfg.Graph.id < nd.Dfg.Graph.id then
                Some n.Dfg.Graph.name
              else None)
            nodes
      in
      match nd.Dfg.Graph.args with
      | [] -> (Ok g, [])
      | args ->
          let k = Workloads.Prng.int rng (List.length args) in
          let repl = Workloads.Prng.pick rng earlier in
          ( Dfg.Graph.of_ops ~inputs:(Dfg.Graph.inputs g)
              (List.map
                 (fun (n, kd, a, gd) ->
                   if n = nd.Dfg.Graph.name then
                     (n, kd, List.mapi (fun j x -> if j = k then repl else x) a,
                      gd)
                   else (n, kd, a, gd))
                 (rows g)),
            [ Core.Mfs.Op_changed nd.Dfg.Graph.name ] ))

(* The edit cone, computed independently of the implementation: the declared
   deltas (honoured even when not structurally visible — a weight change
   lives in the config, not the graph) plus a structural diff against the
   old graph (new name, changed kind/args/guards) plus kept positions
   violating the new static bounds, closed over forward data dependencies.
   [reschedule]'s op-touch counter must equal its size. *)
let expected_cone og (base : Core.Mfs.outcome) g deltas ~cs =
  let n = Dfg.Graph.num_nodes g in
  let bounds =
    match Core.Timeframe.bounds Core.Config.default g ~cs with
    | Ok b -> b
    | Error e -> Alcotest.failf "bounds: %s" (Diag.to_string e)
  in
  let ostart = base.Core.Mfs.schedule.Core.Schedule.start in
  let in_cone = Array.make n false in
  let seed_name nm =
    match Dfg.Graph.find g nm with
    | Some nd -> in_cone.(nd.Dfg.Graph.id) <- true
    | None -> ()
  in
  List.iter
    (function
      | Core.Mfs.Op_added nm | Core.Mfs.Op_changed nm -> seed_name nm
      | Core.Mfs.Op_removed nm -> (
          match Dfg.Graph.find og nm with
          | None -> ()
          | Some ond ->
              List.iter
                (fun s -> seed_name (Dfg.Graph.node og s).Dfg.Graph.name)
                (Dfg.Graph.succs og ond.Dfg.Graph.id)))
    deltas;
  List.iter
    (fun (nd : Dfg.Graph.node) ->
      let i = nd.Dfg.Graph.id in
      match Dfg.Graph.find og nd.Dfg.Graph.name with
      | None -> in_cone.(i) <- true
      | Some ond ->
          if
            ond.Dfg.Graph.kind <> nd.Dfg.Graph.kind
            || ond.Dfg.Graph.args <> nd.Dfg.Graph.args
            || ond.Dfg.Graph.guards <> nd.Dfg.Graph.guards
            || ostart.(ond.Dfg.Graph.id) < bounds.Dfg.Bounds.asap.(i)
            || ostart.(ond.Dfg.Graph.id) > bounds.Dfg.Bounds.alap.(i)
          then in_cone.(i) <- true)
    (Dfg.Graph.nodes g);
  let rec close i =
    List.iter
      (fun s ->
        if not in_cone.(s) then begin
          in_cone.(s) <- true;
          close s
        end)
      (Dfg.Graph.succs g i)
  in
  List.iteri (fun i c -> if c then close i) (Array.to_list in_cone);
  in_cone

(* The 200-probe sweep.  Per probe: the incremental result exists, is
   check_diags-clean within the same budget the full reschedule meets, its
   op-touch counter equals the independently computed cone size, and every
   op outside the cone sits exactly at its old position.  Across all
   probes: the cone stays a small fraction of the graph, and a solid
   majority of probes match the full reschedule's placement cost
   (makespan, total units) exactly — the heuristic equivalence; the rest
   remain valid schedules under the same budget. *)
let single_edit_deltas () =
  let probes = ref 0 in
  let cost_equal = ref 0 in
  let fallbacks = ref 0 in
  let cone_sum = ref 0 in
  let ops_sum = ref 0 in
  let seed = ref 0 in
  while !probes < 200 do
    incr seed;
    let rng = Workloads.Prng.create !seed in
    let ops = 20 + Workloads.Prng.int rng 40 in
    let spec =
      { Workloads.Random_dag.default with Workloads.Random_dag.ops }
    in
    match Workloads.Random_dag.generate ~spec ~seed:!seed () with
    | Error _ -> ()
    | Ok g -> (
        let cs =
          Dfg.Bounds.critical_path g + 1 + Workloads.Prng.int rng 3
        in
        match Core.Mfs.run g (Core.Mfs.Time { cs }) with
        | Error _ -> ()
        | Ok base -> (
            match edit rng g with
            | Error _, _ -> ()
            | Ok g', deltas -> (
                let cs' = max cs (Dfg.Bounds.critical_path g' + 1) in
                let full = Core.Mfs.run g' (Core.Mfs.Time { cs = cs' }) in
                let inc =
                  Core.Mfs.reschedule ~old:base g' deltas
                    (Core.Mfs.Time { cs = cs' })
                in
                match (full, inc) with
                | Error _, Error _ -> ()
                | Error e, Ok _ ->
                    Alcotest.failf "seed %d: only the full path failed: %s"
                      !seed (Diag.message e)
                | Ok _, Error e ->
                    Alcotest.failf
                      "seed %d: only the incremental path failed: %s" !seed
                      (Diag.message e)
                | Ok f, Ok (o, stats) ->
                    incr probes;
                    let s = o.Core.Mfs.schedule in
                    (match Core.Schedule.check_diags s with
                    | [] -> ()
                    | ds ->
                        Alcotest.failf "seed %d: incremental invalid: %s"
                          !seed
                          (Diag.message (List.hd ds)));
                    if Core.Schedule.makespan s > cs' then
                      Alcotest.failf "seed %d: budget %d exceeded" !seed cs';
                    if stats.Core.Mfs.fell_back then incr fallbacks
                    else begin
                      let cone = expected_cone g base g' deltas ~cs:cs' in
                      let size =
                        Array.fold_left
                          (fun a c -> if c then a + 1 else a)
                          0 cone
                      in
                      Alcotest.(check int)
                        (Printf.sprintf "seed %d: op-touch counter" !seed)
                        size stats.Core.Mfs.replaced;
                      (* Kept ops did not move. *)
                      let ostart =
                        base.Core.Mfs.schedule.Core.Schedule.start
                      in
                      let ocol =
                        Option.get base.Core.Mfs.schedule.Core.Schedule.col
                      in
                      let col = Option.get s.Core.Schedule.col in
                      List.iter
                        (fun (nd : Dfg.Graph.node) ->
                          let i = nd.Dfg.Graph.id in
                          if not cone.(i) then
                            match Dfg.Graph.find g nd.Dfg.Graph.name with
                            | None ->
                                Alcotest.failf
                                  "seed %d: kept op %s has no old position"
                                  !seed nd.Dfg.Graph.name
                            | Some ond ->
                                let oid = ond.Dfg.Graph.id in
                                if
                                  s.Core.Schedule.start.(i) <> ostart.(oid)
                                  || col.(i) <> ocol.(oid)
                                then
                                  Alcotest.failf
                                    "seed %d: op %s outside the cone moved"
                                    !seed nd.Dfg.Graph.name)
                        (Dfg.Graph.nodes g');
                      cone_sum := !cone_sum + size;
                      ops_sum := !ops_sum + Dfg.Graph.num_nodes g'
                    end;
                    let cost sched =
                      (Core.Schedule.makespan sched, units sched)
                    in
                    if cost f.Core.Mfs.schedule = cost s then
                      incr cost_equal)))
  done;
  if !fallbacks > 20 then
    Alcotest.failf "incremental path fell back %d/200 times" !fallbacks;
  if !cone_sum * 2 > !ops_sum then
    Alcotest.failf "cones cover %d of %d ops — not local" !cone_sum !ops_sum;
  if !cost_equal < 120 then
    Alcotest.failf
      "only %d/200 probes matched the full reschedule cost exactly"
      !cost_equal

(* A delta that changes nothing re-places nothing and reproduces the old
   schedule bit for bit, including the incrementally maintained energy. *)
let identity_delta () =
  let spec =
    { Workloads.Random_dag.default with Workloads.Random_dag.ops = 30 }
  in
  let g = Helpers.check_ok "dag" (Workloads.Random_dag.generate ~spec ~seed:5 ()) in
  let cs = Dfg.Bounds.critical_path g + 2 in
  let base = Helpers.check_ok "run" (Core.Mfs.run g (Core.Mfs.Time { cs })) in
  let o, stats =
    Helpers.check_ok "reschedule"
      (Core.Mfs.reschedule ~old:base g [] (Core.Mfs.Time { cs }))
  in
  Alcotest.(check bool) "no fallback" false stats.Core.Mfs.fell_back;
  Alcotest.(check int) "nothing re-placed" 0 stats.Core.Mfs.replaced;
  Alcotest.(check int) "everything kept" (Dfg.Graph.num_nodes g)
    stats.Core.Mfs.kept;
  Alcotest.(check (array int)) "starts unchanged"
    base.Core.Mfs.schedule.Core.Schedule.start
    o.Core.Mfs.schedule.Core.Schedule.start;
  Alcotest.(check (array int)) "columns unchanged"
    (Option.get base.Core.Mfs.schedule.Core.Schedule.col)
    (Option.get o.Core.Mfs.schedule.Core.Schedule.col);
  Alcotest.(check int) "energy re-derived incrementally" base.Core.Mfs.energy
    o.Core.Mfs.energy

(* Resource mode has no single frame context to patch — reschedule must
   transparently produce the full result. *)
let resource_falls_back () =
  let g = Helpers.diamond () in
  let cs = Dfg.Bounds.critical_path g + 1 in
  let base = Helpers.check_ok "run" (Core.Mfs.run g (Core.Mfs.Time { cs })) in
  let spec = Core.Mfs.Resource { limits = [ ("*", 1) ] } in
  let o, stats =
    Helpers.check_ok "reschedule" (Core.Mfs.reschedule ~old:base g [] spec)
  in
  let full = Helpers.check_ok "full" (Core.Mfs.run g spec) in
  Alcotest.(check bool) "fell back" true stats.Core.Mfs.fell_back;
  Alcotest.(check (array int)) "same starts as the full run"
    full.Core.Mfs.schedule.Core.Schedule.start
    o.Core.Mfs.schedule.Core.Schedule.start

(* Sensitivity probes ride the incremental path: pruning a sink never
   re-places anything (a sink has no descendants and removing a consumer
   only loosens its ancestors' ALAP), and the pruned cost never exceeds the
   base schedule's. *)
let sensitivity_rides_incremental () =
  let spec =
    { Workloads.Random_dag.default with Workloads.Random_dag.ops = 40 }
  in
  let g = Helpers.check_ok "dag" (Workloads.Random_dag.generate ~spec ~seed:7 ()) in
  let cs = Dfg.Bounds.critical_path g + 2 in
  let base = Helpers.check_ok "run" (Core.Mfs.run g (Core.Mfs.Time { cs })) in
  let impacts = Explore.Refine.sensitivity ~graph:g ~base ~cs () in
  Alcotest.(check int) "one probe per sink"
    (List.length (Dfg.Graph.sinks g))
    (List.length impacts);
  let base_units = units base.Core.Mfs.schedule in
  let base_makespan = Core.Schedule.makespan base.Core.Mfs.schedule in
  List.iter
    (fun (i : Explore.Refine.impact) ->
      Alcotest.(check bool)
        (i.Explore.Refine.i_op ^ ": incremental") false
        i.Explore.Refine.i_fell_back;
      Alcotest.(check int)
        (i.Explore.Refine.i_op ^ ": empty cone")
        0 i.Explore.Refine.i_replaced;
      if i.Explore.Refine.i_units > base_units then
        Alcotest.failf "%s: pruning raised units" i.Explore.Refine.i_op;
      if i.Explore.Refine.i_makespan > base_makespan then
        Alcotest.failf "%s: pruning raised makespan" i.Explore.Refine.i_op)
    impacts

let suite =
  [
    test "200 random single-edit deltas" single_edit_deltas;
    test "identity delta keeps everything" identity_delta;
    test "resource spec falls back to full run" resource_falls_back;
    test "sink sensitivity rides the incremental path"
      sensitivity_rides_incremental;
  ]
