let test name f = Alcotest.test_case name `Quick f

let counts g = Dfg.Graph.count_by_class g
let count g c = Option.value ~default:0 (List.assoc_opt c (counts g))

let diffeq_profile () =
  let g = Workloads.Classic.diffeq () in
  Alcotest.(check int) "ops" 11 (Dfg.Graph.num_nodes g);
  Alcotest.(check int) "mults" 6 (count g "*");
  Alcotest.(check int) "adds" 2 (count g "+");
  Alcotest.(check int) "subs" 2 (count g "-");
  Alcotest.(check int) "cmps" 1 (count g "<");
  Alcotest.(check int) "critical path" 4 (Dfg.Bounds.critical_path g)

let tseng_profile () =
  let g = Workloads.Classic.tseng () in
  Alcotest.(check int) "ops" 7 (Dfg.Graph.num_nodes g);
  List.iter
    (fun (c, k) -> Alcotest.(check int) c k (count g c))
    [ ("+", 2); ("*", 1); ("-", 1); ("&", 1); ("|", 1); ("=", 1) ];
  Alcotest.(check int) "critical path" 4 (Dfg.Bounds.critical_path g)

let chained_profile () =
  let g = Workloads.Classic.chained_sum () in
  Alcotest.(check int) "only adds and subs" 2 (List.length (counts g));
  Alcotest.(check int) "critical path" 5 (Dfg.Bounds.critical_path g)

let ar_profile () =
  let g = Workloads.Classic.ar_filter () in
  Alcotest.(check int) "ops" 25 (Dfg.Graph.num_nodes g);
  Alcotest.(check int) "mults" 13 (count g "*");
  Alcotest.(check int) "adds" 8 (count g "+");
  Alcotest.(check int) "subs" 4 (count g "-")

let fir_profile () =
  let g = Workloads.Classic.fir16 () in
  Alcotest.(check int) "ops" 31 (Dfg.Graph.num_nodes g);
  Alcotest.(check int) "mults" 16 (count g "*");
  Alcotest.(check int) "adds" 15 (count g "+");
  Alcotest.(check int) "tree depth" 5 (Dfg.Bounds.critical_path g)

let dct_profile () =
  let g = Workloads.Classic.dct8 () in
  Alcotest.(check int) "mults" 12 (count g "*");
  Alcotest.(check int) "adds" 12 (count g "+");
  Alcotest.(check int) "subs" 12 (count g "-")

let ewf_profile () =
  let g = Workloads.Classic.ewf () in
  Alcotest.(check int) "ops" 34 (Dfg.Graph.num_nodes g);
  Alcotest.(check int) "adds" 26 (count g "+");
  Alcotest.(check int) "mults" 8 (count g "*");
  Alcotest.(check int) "critical path" 13 (Dfg.Bounds.critical_path g);
  (* Multiplications are on the critical path: with the paper's 2-cycle
     multiplier the EWF lands exactly on its classic 17-step floor. *)
  let delays = function Dfg.Op.Mul -> 2 | _ -> 1 in
  Alcotest.(check int) "cp with 2-cycle mult" 17
    (Dfg.Bounds.critical_path ~delays g)

let biquad_profile () =
  let g = Workloads.Classic.biquad () in
  Alcotest.(check int) "ops" 18 (Dfg.Graph.num_nodes g);
  Alcotest.(check int) "mults" 10 (count g "*");
  Alcotest.(check int) "adds" 4 (count g "+");
  Alcotest.(check int) "subs" 4 (count g "-");
  (* Recurrence: y2 depends on y1 through the full section chain. *)
  Alcotest.(check int) "serial sections" 7 (Dfg.Bounds.critical_path g)

let by_name_aliases () =
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " resolves") true
        (Workloads.Classic.by_name n <> None))
    [ "ex1"; "ex2"; "ex3"; "ex4"; "ex5"; "ex6"; "tseng"; "chained"; "diffeq";
      "facet"; "ar"; "fir16"; "dct8"; "ewf"; "biquad"; "cond" ];
  Alcotest.(check bool) "unknown rejected" true
    (Workloads.Classic.by_name "nonesuch" = None)

let prng_deterministic () =
  let a = Workloads.Prng.create 7 and b = Workloads.Prng.create 7 in
  let xs = List.init 10 (fun _ -> Workloads.Prng.next a) in
  let ys = List.init 10 (fun _ -> Workloads.Prng.next b) in
  Alcotest.(check bool) "same stream" true (xs = ys);
  let c = Workloads.Prng.create 8 in
  let zs = List.init 10 (fun _ -> Workloads.Prng.next c) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let prng_ranges () =
  let r = Workloads.Prng.create 3 in
  for _ = 1 to 200 do
    let v = Workloads.Prng.int r 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Workloads.Prng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 1.)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Workloads.Prng.int r 0))

let random_dag_deterministic () =
  let a = Workloads.Random_dag.generate_exn ~seed:5 () in
  let b = Workloads.Random_dag.generate_exn ~seed:5 () in
  Alcotest.(check bool) "same graph" true
    (Dfg.Parser.to_source a = Dfg.Parser.to_source b)

let random_dag_spec () =
  let spec =
    { Workloads.Random_dag.default with Workloads.Random_dag.ops = 50;
      guard_prob = 0.3 }
  in
  let g = Workloads.Random_dag.generate_exn ~spec ~seed:11 () in
  (* 50 requested ops plus the guard condition node. *)
  Alcotest.(check int) "op count" 51 (Dfg.Graph.num_nodes g);
  let guarded =
    List.length (List.filter (fun nd -> nd.Dfg.Graph.guards <> []) (Dfg.Graph.nodes g))
  in
  Alcotest.(check bool) "some guarded ops" true (guarded > 0)

let random_dag_bad_spec () =
  let d =
    Helpers.check_err "zero ops"
      (Workloads.Random_dag.generate
         ~spec:{ Workloads.Random_dag.default with Workloads.Random_dag.ops = 0 }
         ~seed:1 ())
  in
  Alcotest.(check string) "diag code" "random-dag.ops" d.Diag.code;
  Alcotest.check_raises "generate_exn raises"
    (Invalid_argument "Random_dag.generate: ops must be >= 1") (fun () ->
      ignore
        (Workloads.Random_dag.generate_exn
           ~spec:{ Workloads.Random_dag.default with Workloads.Random_dag.ops = 0 }
           ~seed:1 ()))

let classics_evaluate =
  (* Every classic evaluates under the golden model on arbitrary inputs. *)
  Helpers.qcheck ~count:30 "classics evaluate on random inputs"
    QCheck2.Gen.(int_bound 1000)
    (fun salt ->
      List.for_all
        (fun (_, g) ->
          let env = List.mapi (fun i v -> (v, ((i + salt) mod 19) - 9)) (Dfg.Graph.inputs g) in
          match Sim.Eval.run g env with Ok _ -> true | Error _ -> false)
        (Workloads.Classic.all ()))

let suite =
  [
    test "diffeq profile" diffeq_profile;
    test "tseng profile" tseng_profile;
    test "chained-sum profile" chained_profile;
    test "AR filter profile" ar_profile;
    test "FIR16 profile" fir_profile;
    test "DCT8 profile" dct_profile;
    test "EWF profile" ewf_profile;
    test "biquad profile" biquad_profile;
    test "by_name aliases" by_name_aliases;
    test "PRNG determinism" prng_deterministic;
    test "PRNG ranges" prng_ranges;
    test "random DAG determinism" random_dag_deterministic;
    test "random DAG spec honoured" random_dag_spec;
    test "random DAG bad spec" random_dag_bad_spec;
    classics_evaluate;
  ]
