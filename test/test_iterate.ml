let test name f = Alcotest.test_case name `Quick f

let synthesise g =
  let lib = Celllib.Ncr.for_graph g in
  let o =
    Helpers.check_ok "mfsa"
      (Core.Mfsa.run ~library:lib ~cs:(Dfg.Bounds.critical_path g + 1) g)
  in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:(fun _ -> 1)
  in
  (o.Core.Mfsa.datapath, ctrl)

(* An accumulator: acc' = acc + x*x — one mult, one add, fed back. *)
let accumulator () =
  Helpers.graph_exn ~inputs:[ "x"; "acc" ]
    [
      Helpers.op "sq" Dfg.Op.Mul [ "x"; "x" ];
      Helpers.op "acc_next" Dfg.Op.Add [ "acc"; "sq" ];
    ]

let accumulator_stream () =
  let g = accumulator () in
  let dp, ctrl = synthesise g in
  let feedback = [ ("acc_next", "acc") ] in
  let stream k = [ ("x", k + 1) ] in
  let out =
    Helpers.check_ok "iterate"
      (Sim.Iterate.run dp ctrl ~feedback ~consts:[] ~init:[ ("acc", 0) ]
         ~stream ~iterations:4)
  in
  (* acc accumulates 1 + 4 + 9 + 16. *)
  let accs = List.map (fun vs -> List.assoc "acc_next" vs) out in
  Alcotest.(check (list int)) "running sums" [ 1; 5; 14; 30 ] accs;
  (match
     Sim.Iterate.check dp ctrl ~feedback ~consts:[] ~init:[ ("acc", 0) ]
       ~stream ~iterations:4
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Diag.to_string e))

let biquad_filter_stream () =
  (* Run the biquad over an impulse and check the machine against the
     golden model with both sections' state registers fed back. *)
  let g = Workloads.Classic.biquad () in
  let dp, ctrl = synthesise g in
  let feedback =
    [ ("s1n1", "s11"); ("s2n1", "s21"); ("s1n2", "s12"); ("s2n2", "s22") ]
  in
  let consts =
    [ ("b01", 2); ("b11", 1); ("b21", 1); ("a11", 1); ("a21", 0);
      ("b02", 1); ("b12", 0); ("b22", 0); ("a12", 0); ("a22", 1) ]
  in
  let init = [ ("s11", 0); ("s21", 0); ("s12", 0); ("s22", 0) ] in
  let stream k = [ ("xin", if k = 0 then 1 else 0) ] in
  match
    Sim.Iterate.check dp ctrl ~feedback ~consts ~init ~stream ~iterations:8
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Diag.to_string e)

let ar_filter_stream () =
  let g = Workloads.Classic.ar_filter () in
  let dp, ctrl = synthesise g in
  let feedback =
    [ ("f0", "b0"); ("bn1", "b1"); ("bn2", "b2"); ("bn3", "b3") ]
  in
  let consts =
    [ ("k1", 1); ("k2", -1); ("k3", 1); ("k4", -1);
      ("v0", 1); ("v1", 2); ("v2", 1); ("v3", 2); ("v4", 1) ]
  in
  let init = [ ("b0", 0); ("b1", 0); ("b2", 0); ("b3", 0) ] in
  let stream k = [ ("xin", (k * 3 mod 7) - 3) ] in
  match
    Sim.Iterate.check dp ctrl ~feedback ~consts ~init ~stream ~iterations:6
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Diag.to_string e)

let guarded_feedback_holds_state () =
  (* When the feedback source sits on an untaken branch, the state holds. *)
  let g =
    Helpers.graph_exn ~inputs:[ "x"; "acc" ]
      [
        Helpers.op "go" Dfg.Op.Gt [ "x"; "acc" ];
        ("acc_next", Dfg.Op.Add, [ "acc"; "x" ], [ ("go", true) ]);
      ]
  in
  let dp, ctrl = synthesise g in
  let feedback = [ ("acc_next", "acc") ] in
  let stream k = [ ("x", List.nth [ 5; 1; 9 ] k) ] in
  let out =
    Helpers.check_ok "iterate"
      (Sim.Iterate.run dp ctrl ~feedback ~consts:[] ~init:[ ("acc", 0) ]
         ~stream ~iterations:3)
  in
  let accs =
    List.map (fun vs -> List.assoc_opt "acc_next" vs) out
  in
  (* x=5 > 0: acc 5; x=1 < 5: held; x=9 > 5: 14. *)
  Alcotest.(check (list (option int))) "guarded accumulation"
    [ Some 5; None; Some 14 ] accs

let bad_feedback_rejected () =
  let g = accumulator () in
  let dp, ctrl = synthesise g in
  ignore
    (Helpers.check_err "unknown output"
       (Sim.Iterate.run dp ctrl ~feedback:[ ("nope", "acc") ] ~consts:[]
          ~init:[ ("acc", 0) ]
          ~stream:(fun _ -> [ ("x", 1) ])
          ~iterations:1));
  ignore
    (Helpers.check_err "unknown input"
       (Sim.Iterate.run dp ctrl ~feedback:[ ("acc_next", "nope") ] ~consts:[]
          ~init:[ ("acc", 0) ]
          ~stream:(fun _ -> [ ("x", 1) ])
          ~iterations:1));
  ignore
    (Helpers.check_err "missing init"
       (Sim.Iterate.run dp ctrl ~feedback:[ ("acc_next", "acc") ] ~consts:[]
          ~init:[]
          ~stream:(fun _ -> [ ("x", 1) ])
          ~iterations:1))

let suite =
  [
    test "accumulator over a stream" accumulator_stream;
    test "biquad filter over an impulse" biquad_filter_stream;
    test "AR lattice filter over a stream" ar_filter_stream;
    test "guarded feedback holds state" guarded_feedback_holds_state;
    test "bad feedback rejected" bad_feedback_rejected;
  ]
