let test name f = Alcotest.test_case name `Quick f

let double_structure () =
  let g = Helpers.diamond () in
  let g2 = Helpers.check_ok "double" (Core.Pipeline.double g) in
  Alcotest.(check int) "twice the nodes" (2 * Dfg.Graph.num_nodes g)
    (Dfg.Graph.num_nodes g2);
  Alcotest.(check int) "twice the inputs"
    (2 * List.length (Dfg.Graph.inputs g))
    (List.length (Dfg.Graph.inputs g2));
  Alcotest.(check bool) "instance 1 present" true
    (Dfg.Graph.find g2 "s_i1" <> None);
  Alcotest.(check bool) "instance 2 present" true
    (Dfg.Graph.find g2 "s_i2" <> None);
  (* The instances are independent: critical path unchanged. *)
  Alcotest.(check int) "critical path preserved"
    (Dfg.Bounds.critical_path g)
    (Dfg.Bounds.critical_path g2)

let double_custom_suffixes () =
  let g = Helpers.diamond () in
  let g2 =
    Helpers.check_ok "double" (Core.Pipeline.double ~suffixes:("_a", "_b") g)
  in
  Alcotest.(check bool) "custom suffix" true (Dfg.Graph.find g2 "m1_a" <> None)

let slots () =
  Alcotest.(check int) "step 1 slot 0" 0 (Core.Pipeline.slot ~latency:4 1);
  Alcotest.(check int) "step 4 slot 3" 3 (Core.Pipeline.slot ~latency:4 4);
  Alcotest.(check int) "step 5 wraps" 0 (Core.Pipeline.slot ~latency:4 5)

let folded_profile_sums () =
  let config =
    { Core.Config.default with Core.Config.functional_latency = Some 3 }
  in
  let g = Workloads.Classic.ar_filter () in
  let cs = Dfg.Bounds.critical_path g in
  let o = Helpers.mfs_time ~config g cs in
  let profile = Core.Pipeline.folded_profile o.Core.Mfs.schedule ~latency:3 in
  List.iter
    (fun (c, arr) ->
      let expected =
        Option.value ~default:0 (List.assoc_opt c (Dfg.Graph.count_by_class g))
      in
      Alcotest.(check int) (c ^ " mass preserved") expected
        (Array.fold_left ( + ) 0 arr))
    profile

let folded_profile_bounds_units () =
  let config =
    { Core.Config.default with Core.Config.functional_latency = Some 4 }
  in
  let g = Workloads.Classic.ar_filter () in
  let cs = Dfg.Bounds.critical_path g in
  let o = Helpers.mfs_time ~config g cs in
  let profile = Core.Pipeline.folded_profile o.Core.Mfs.schedule ~latency:4 in
  (* Units bound by MFS must cover the peak folded slot load. *)
  List.iter
    (fun (c, arr) ->
      let peak = Array.fold_left max 0 arr in
      Alcotest.(check bool)
        (c ^ " units cover the folded peak")
        true
        (Helpers.fu_count o.Core.Mfs.schedule c >= peak))
    profile

let speedup_value () =
  Alcotest.(check (float 1e-9)) "13/4" 3.25
    (Core.Pipeline.speedup ~cs:13 ~latency:4)

let min_latency_bound () =
  let g = Workloads.Classic.ar_filter () in
  (* 13 multiplications on 3 multipliers: at least ceil(13/3) = 5. *)
  let ml =
    Core.Pipeline.min_latency g Core.Config.default ~limits:[ ("*", 3) ]
  in
  Alcotest.(check bool) "at least 5" true (ml >= 5);
  let relaxed =
    Core.Pipeline.min_latency g Core.Config.default
      ~limits:[ ("*", 13); ("+", 8); ("-", 4) ]
  in
  Alcotest.(check int) "fully parallel floor" 1 relaxed

let folding_conflicts_enforced () =
  (* With latency 2 and one multiplier class unit, steps 1 and 3 conflict:
     MFS must allocate extra units rather than fold onto one. *)
  let config =
    { Core.Config.default with Core.Config.functional_latency = Some 2 }
  in
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        Helpers.op "m1" Dfg.Op.Mul [ "a"; "b" ];
        Helpers.op "m2" Dfg.Op.Mul [ "m1"; "b" ];
        Helpers.op "m3" Dfg.Op.Mul [ "m2"; "b" ];
      ]
  in
  let o = Helpers.mfs_time ~config g 3 in
  Helpers.check_schedule o.Core.Mfs.schedule;
  (* Three serial mults fold into 2 slots: at least two units. *)
  Alcotest.(check bool) "folding forces a second unit" true
    (Helpers.fu_count o.Core.Mfs.schedule "*" >= 2)

let replicate_structure () =
  let g = Helpers.diamond () in
  let g3 = Helpers.check_ok "replicate" (Core.Pipeline.replicate ~copies:3 g) in
  Alcotest.(check int) "triple nodes" (3 * Dfg.Graph.num_nodes g)
    (Dfg.Graph.num_nodes g3);
  Alcotest.(check bool) "third instance present" true
    (Dfg.Graph.find g3 "s_i3" <> None);
  let d = Helpers.check_err "copies >= 1" (Core.Pipeline.replicate ~copies:0 g) in
  Alcotest.(check string) "diag code" "pipeline.bad-copies" d.Diag.code

let unfold_certifies_folding () =
  (* The 5.5.2 property: a folded schedule materialises as overlapped
     instances on the same units, and the unfolded schedule is valid. *)
  let config =
    { Core.Config.default with Core.Config.functional_latency = Some 4 }
  in
  let g = Workloads.Classic.ar_filter () in
  let cs = Dfg.Bounds.critical_path g in
  let o = Helpers.mfs_time ~config g cs in
  let unfolded =
    Helpers.check_ok "unfold"
      (Core.Pipeline.unfold o.Core.Mfs.schedule ~latency:4 ())
  in
  Helpers.check_schedule unfolded;
  (* Steady state: units of the unfolded run equal the folded counts. *)
  List.iter
    (fun (c, folded_units) ->
      let unfolded_units =
        Option.value ~default:0
          (List.assoc_opt c (Core.Schedule.fu_counts unfolded))
      in
      Alcotest.(check int) (c ^ " same unit count") folded_units unfolded_units)
    (Core.Schedule.fu_counts o.Core.Mfs.schedule)

let unfold_every_classic () =
  List.iter
    (fun (name, g) ->
      let latency = max 2 (Dfg.Bounds.critical_path g / 2) in
      let config =
        { Core.Config.default with
          Core.Config.functional_latency = Some latency }
      in
      let cs = Dfg.Bounds.critical_path g in
      let o = Helpers.mfs_time ~config g cs in
      let unfolded =
        Helpers.check_ok (name ^ " unfold")
          (Core.Pipeline.unfold o.Core.Mfs.schedule ~latency ())
      in
      Helpers.check_schedule unfolded)
    (Workloads.Classic.all ())

let unfold_needs_columns () =
  let g = Helpers.diamond () in
  let s =
    Core.Schedule.make ~config:Core.Config.default ~cs:2 g [| 1; 1; 2 |]
  in
  ignore
    (Helpers.check_err "no columns" (Core.Pipeline.unfold s ~latency:2 ()))

let suite =
  [
    test "doubling duplicates the graph" double_structure;
    test "replicate k instances" replicate_structure;
    test "unfolding certifies the folded schedule" unfold_certifies_folding;
    test "unfolding works on every classic" unfold_every_classic;
    test "unfold requires column binding" unfold_needs_columns;
    test "custom suffixes" double_custom_suffixes;
    test "slot arithmetic" slots;
    test "folded profile preserves op mass" folded_profile_sums;
    test "units cover the folded peak" folded_profile_bounds_units;
    test "speedup" speedup_value;
    test "min latency bound" min_latency_bound;
    test "folding conflicts force extra units" folding_conflicts_enforced;
  ]
