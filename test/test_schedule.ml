let test name f = Alcotest.test_case name `Quick f

let cfg = Core.Config.default

(* The violation messages of an invalid schedule. *)
let check_errs what s =
  match List.map Diag.message (Core.Schedule.check_diags s) with
  | [] -> Alcotest.failf "%s unexpectedly succeeded" what
  | errs -> errs

let mk ?col ?config g ~cs start =
  Core.Schedule.make ?col
    ~config:(Option.value ~default:cfg config)
    ~cs g (Array.of_list start)

let valid_diamond () =
  let g = Helpers.diamond () in
  let s = mk g ~cs:2 [ 1; 1; 2 ] ~col:[| 1; 2; 1 |] in
  Helpers.check_schedule s;
  Alcotest.(check int) "makespan" 2 (Core.Schedule.makespan s);
  Alcotest.(check (list (pair string int))) "fu counts" [ ("*", 2); ("+", 1) ]
    (Core.Schedule.fu_counts s)

let precedence_violation () =
  let g = Helpers.diamond () in
  let s = mk g ~cs:2 [ 1; 2; 2 ] ~col:[| 1; 1; 1 |] in
  let errs = check_errs "precedence" s in
  Alcotest.(check bool) "mentions precedence" true
    (List.exists (Helpers.contains ~sub:"precedence") errs)

let horizon_violation () =
  let g = Helpers.diamond () in
  let s = mk g ~cs:1 [ 1; 1; 2 ] ~col:[| 1; 2; 1 |] in
  let errs = check_errs "horizon" s in
  Alcotest.(check bool) "mentions horizon" true
    (List.exists (Helpers.contains ~sub:"horizon") errs)

let start_below_one () =
  let g = Helpers.diamond () in
  let s = mk g ~cs:2 [ 0; 1; 2 ] ~col:[| 1; 2; 1 |] in
  let errs = check_errs "start" s in
  Alcotest.(check bool) "start < 1 caught" true
    (List.exists (Helpers.contains ~sub:"< 1") errs)

let fu_conflict () =
  let g = Helpers.diamond () in
  let s = mk g ~cs:2 [ 1; 1; 2 ] ~col:[| 1; 1; 1 |] in
  let errs = check_errs "conflict" s in
  Alcotest.(check bool) "FU conflict caught" true
    (List.exists (Helpers.contains ~sub:"FU conflict") errs)

let multicycle_conflict () =
  let config =
    { cfg with Core.Config.delays = (function Dfg.Op.Mul -> 2 | _ -> 1) }
  in
  let g = Helpers.diamond () in
  (* m1 occupies steps 1-2; m2 starting at 2 on the same unit clashes. *)
  let s = mk ~config g ~cs:4 [ 1; 2; 4 ] ~col:[| 1; 1; 1 |] in
  let errs = check_errs "mc conflict" s in
  Alcotest.(check bool) "overlap caught" true
    (List.exists (Helpers.contains ~sub:"FU conflict") errs);
  (* On separate units it is fine. *)
  let ok = mk ~config g ~cs:4 [ 1; 2; 4 ] ~col:[| 1; 2; 1 |] in
  Helpers.check_schedule ok

let latency_conflict () =
  let config = { cfg with Core.Config.functional_latency = Some 2 } in
  let g =
    Helpers.graph_exn ~inputs:[ "a"; "b" ]
      [
        Helpers.op "m1" Dfg.Op.Mul [ "a"; "b" ];
        Helpers.op "m2" Dfg.Op.Mul [ "m1"; "b" ];
      ]
  in
  (* Steps 1 and 3 fold together under latency 2. *)
  let bad = mk ~config g ~cs:3 [ 1; 3 ] ~col:[| 1; 1 |] in
  let errs = check_errs "folded clash" bad in
  Alcotest.(check bool) "caught" true
    (List.exists (Helpers.contains ~sub:"FU conflict") errs);
  let good = mk ~config g ~cs:3 [ 1; 3 ] ~col:[| 1; 2 |] in
  Helpers.check_schedule good

let mutex_overlap_allowed () =
  let g = Workloads.Classic.cond_example () in
  let id n = (Option.get (Dfg.Graph.find g n)).Dfg.Graph.id in
  let n = Dfg.Graph.num_nodes g in
  let start = Array.make n 0 and col = Array.make n 1 in
  start.(id "c1") <- 1;
  (* exclusive adds share step 2 and the same adder *)
  start.(id "t1") <- 2;
  start.(id "t2") <- 2;
  start.(id "t3") <- 3;
  start.(id "t4") <- 3;
  start.(id "t5") <- 3;
  col.(id "t5") <- 1;
  col.(id "t3") <- 1;
  (* t3 is mul, t5 is mul, both col 1 but exclusive -> allowed *)
  let s = Core.Schedule.make ~col ~config:cfg ~cs:3 g start in
  Helpers.check_schedule s;
  (* With sharing disabled the same schedule is rejected. *)
  let no_share = { cfg with Core.Config.share_mutex = false } in
  let s2 = Core.Schedule.make ~col ~config:no_share ~cs:3 g start in
  let errs = check_errs "no sharing" s2 in
  Alcotest.(check bool) "conflict without sharing" true (errs <> [])

let chaining_precedence () =
  let chaining =
    Some
      {
        Core.Config.prop_delay = (fun _ -> 40.);
        clock = 100.;
      }
  in
  let config = { cfg with Core.Config.chaining } in
  let g = Helpers.chain4 () in
  (* c1,c2 chained in step 1 (on two adders in series); c3,c4 in step 2. *)
  let s =
    Core.Schedule.make ~col:[| 1; 2; 1; 2 |]
      ~offset:[| 0.; 40.; 0.; 40. |] ~config ~cs:2 g [| 1; 1; 2; 2 |]
  in
  Helpers.check_schedule s

let chaining_offset_violation () =
  let chaining =
    Some { Core.Config.prop_delay = (fun _ -> 40.); clock = 100. }
  in
  let config = { cfg with Core.Config.chaining } in
  let g = Helpers.chain4 () in
  (* Three chained adds need 120 ns > 100 ns clock. *)
  let s =
    Core.Schedule.make ~col:[| 1; 2; 3; 1 |]
      ~offset:[| 0.; 40.; 80.; 0. |] ~config ~cs:2 g [| 1; 1; 1; 2 |]
  in
  let errs = check_errs "over-chained" s in
  Alcotest.(check bool) "precedence rejected" true
    (List.exists (Helpers.contains ~sub:"precedence") errs)

let fu_counts_without_cols () =
  let g = Helpers.diamond () in
  let s = mk g ~cs:2 [ 1; 1; 2 ] in
  Alcotest.(check (list (pair string int))) "concurrency-based" [ ("*", 2); ("+", 1) ]
    (Core.Schedule.fu_counts s)

let fu_counts_mutex_share () =
  let g = Workloads.Classic.cond_example () in
  let id n = (Option.get (Dfg.Graph.find g n)).Dfg.Graph.id in
  let n = Dfg.Graph.num_nodes g in
  let start = Array.make n 3 in
  start.(id "c1") <- 1;
  start.(id "t1") <- 2;
  start.(id "t2") <- 2;
  let s = Core.Schedule.make ~config:cfg ~cs:3 g start in
  (* t1/t2 are exclusive adds in the same step: one adder suffices. *)
  Alcotest.(check (option int)) "one adder" (Some 1)
    (List.assoc_opt "+" (Core.Schedule.fu_counts s))

let check_diag_reports () =
  let g = Helpers.diamond () in
  let s = mk g ~cs:2 [ 1; 2; 2 ] ~col:[| 1; 1; 1 |] in
  let d = Helpers.check_err "check_diag" (Core.Schedule.check_diag s) in
  Alcotest.(check string) "code" "schedule.invalid" d.Diag.code;
  Alcotest.(check bool) "internal" true (Diag.is_bug d)

let pp_smoke () =
  let g = Helpers.diamond () in
  let s = mk g ~cs:2 [ 1; 1; 2 ] ~col:[| 1; 2; 1 |] in
  let out = Format.asprintf "%a" Core.Schedule.pp s in
  Alcotest.(check bool) "mentions m1" true (Helpers.contains ~sub:"m1" out)

let suite =
  [
    test "valid diamond accepted" valid_diamond;
    test "precedence violation caught" precedence_violation;
    test "horizon violation caught" horizon_violation;
    test "start below step 1 caught" start_below_one;
    test "FU conflict caught" fu_conflict;
    test "multi-cycle occupancy conflicts" multicycle_conflict;
    test "functional-latency folding conflicts" latency_conflict;
    test "mutually exclusive ops may overlap" mutex_overlap_allowed;
    test "chained schedule accepted" chaining_precedence;
    test "chaining beyond the clock rejected" chaining_offset_violation;
    test "fu_counts without binding" fu_counts_without_cols;
    test "fu_counts packs exclusive ops" fu_counts_mutex_share;
    test "check_exn raises Failure" check_diag_reports;
    test "pp renders op names" pp_smoke;
  ]
