let test name f = Alcotest.test_case name `Quick f

module R = Analysis.Ranges

let parse_exn src =
  match Dfg.Parser.parse src with
  | Ok g -> g
  | Error d -> Alcotest.failf "test graph does not parse: %s" (Diag.to_string d)

let codes fs = List.map (fun f -> f.Analysis.Finding.diag.Diag.code) fs

(* ---- Deterministic facts ---------------------------------------------- *)

let min_width_basics () =
  Alcotest.(check int) "0 fits 1 bit" 1 (R.min_width (R.exact 0));
  Alcotest.(check int) "-1 fits 1 bit" 1 (R.min_width (R.exact (-1)));
  Alcotest.(check int) "1 needs 2 bits" 2 (R.min_width (R.exact 1));
  Alcotest.(check int) "[0,15] needs 5 bits" 5 (R.min_width (R.of_interval 0 15));
  Alcotest.(check int) "[-16,15] needs 5 bits" 5
    (R.min_width (R.of_interval (-16) 15));
  Alcotest.(check int) "[-8,7] needs 4 bits" 4 (R.min_width (R.of_interval (-8) 7));
  Alcotest.(check bool) "top is full width" true
    (R.min_width R.top >= Celllib.Library.word_width);
  Alcotest.(check int) "of_width roundtrips" 6 (R.min_width (R.of_width 6))

let inference_example () =
  let g =
    parse_exn
      "input a b\nrange a 0 15\nrange b 0 15\ns = add a b\np = mul a b\n"
  in
  let t = R.analyze g in
  Alcotest.(check int) "a: [0,15]" 5 (R.width_of t "a");
  Alcotest.(check int) "s: [0,30]" 6 (R.width_of t "s");
  Alcotest.(check int) "p: [0,225]" 9 (R.width_of t "p");
  Alcotest.(check int) "loop-free converges in one pass" 1 (R.passes t)

let unannotated_clean () =
  let g = Helpers.diamond () in
  let t = R.analyze g in
  Alcotest.(check bool) "all facts top" true (R.fact_of t "s" = R.top);
  Alcotest.(check int) "no findings" 0 (List.length (R.check g))

let planted_overflow () =
  (* a is declared in [16,31]; a 4-bit copy holds at most [-8,7]: every
     execution overflows, so this must be a static error (exit 5) —
     never first caught by simulation. *)
  let g = parse_exn "input a\nrange a 16 31\ns = mov a\nwidth s 4\n" in
  let fs = R.check g in
  Alcotest.(check bool) "width.overflow reported" true
    (List.mem "width.overflow" (codes (Analysis.Finding.errors fs)));
  Alcotest.(check int) "internal error exits 5" 5 (Analysis.Finding.exit_code fs)

let truncation_warning () =
  (* [0,31] against a 4-bit contract overlaps [-8,7]: overflow possible
     but not certain — a warning, which never changes the exit code. *)
  let g = parse_exn "input a\nrange a 0 31\ns = mov a\nwidth s 4\n" in
  let fs = R.check g in
  Alcotest.(check bool) "width.truncation reported" true
    (List.mem "width.truncation" (codes (Analysis.Finding.warnings fs)));
  Alcotest.(check int) "no errors" 0 (List.length (Analysis.Finding.errors fs));
  Alcotest.(check int) "warnings keep exit 0" 0 (Analysis.Finding.exit_code fs)

let narrow_nodes_get_faster_delays () =
  let g =
    parse_exn "input a b\nrange a 0 15\nrange b 0 15\ns = add a b\n"
  in
  let lib = Celllib.Ncr.for_graph g in
  let t = R.analyze g in
  let delays = R.node_delays lib g t in
  match List.assoc_opt "s" delays with
  | None -> Alcotest.fail "narrow add not listed in node_delays"
  | Some d ->
      Alcotest.(check bool) "strictly below full-width delay" true
        (d < lib.Celllib.Library.prop_delay Dfg.Op.Add)

(* ---- Lattice properties ----------------------------------------------- *)

(* Random facts: mostly intervals around small values, with exact points
   and top mixed in so the masks get exercised too. *)
let fact_gen =
  QCheck2.Gen.(
    oneof
      [
        return R.top;
        map R.exact (int_range (-300) 300);
        map
          (fun (a, b) -> R.of_interval (min a b) (max a b))
          (pair (int_range (-300) 300) (int_range (-300) 300));
        map R.of_width (int_range 1 12);
      ])

let join_monotone =
  Helpers.qcheck ~count:500 "join is an upper bound"
    QCheck2.Gen.(pair fact_gen fact_gen)
    (fun (x, y) ->
      let j = R.join x y in
      R.leq x j && R.leq y j && R.leq x (R.join x x))

let widen_over_join =
  Helpers.qcheck ~count:500 "widen over-approximates join"
    QCheck2.Gen.(pair fact_gen fact_gen)
    (fun (x, y) -> R.leq (R.join x y) (R.widen x y))

let join_keeps_members =
  Helpers.qcheck ~count:500 "join keeps conforming values"
    QCheck2.Gen.(pair (int_range (-300) 300) (int_range (-300) 300))
    (fun (a, b) ->
      let j = R.join (R.exact a) (R.exact b) in
      R.contains j a && R.contains j b)

(* ---- Transfer soundness ----------------------------------------------- *)

(* For random concrete operands wrapped in facts that contain them, the
   abstract transfer must contain the concrete [Op.eval] result — for
   every operation kind, including the total-function edge cases
   (division by zero, out-of-range shifts). *)
let transfer_case_gen =
  QCheck2.Gen.(
    let operand =
      map
        (fun (v, lo_pad, hi_pad, shape) ->
          let f =
            match shape with
            | 0 -> R.exact v
            | 1 -> R.top
            | _ -> R.of_interval (v - lo_pad) (v + hi_pad)
          in
          (v, f))
        (quad (int_range (-200) 200) (int_range 0 30) (int_range 0 30)
           (int_range 0 4))
    in
    (* Memory kinds have no pure [Op.eval]; their transfer is exercised by
       the whole-graph soundness test over array workloads instead. *)
    let kind =
      oneofl (List.filter (fun k -> not (Dfg.Op.is_mem k)) Dfg.Op.all)
    in
    map
      (fun (k, o1, o2) ->
        let args = if Dfg.Op.arity k = 1 then [ o1 ] else [ o1; o2 ] in
        (k, args))
      (triple kind operand operand))

let transfer_over_approximates =
  Helpers.qcheck ~count:2000 "transfer over-approximates Op.eval"
    transfer_case_gen
    (fun (k, args) ->
      let concrete = Dfg.Op.eval k (List.map fst args) in
      R.contains (R.transfer k (List.map snd args)) concrete)

(* ---- Whole-graph soundness on random DAGs ----------------------------- *)

(* Annotate every input of a random DAG with a range, evaluate the graph
   concretely on values drawn inside those ranges, and require every
   node's concrete value to conform to its inferred fact. *)
let annotated_dag_gen =
  QCheck2.Gen.(
    map
      (fun (g, vseed) ->
        let rng = Workloads.Prng.create vseed in
        let annotated =
          List.map
            (fun x ->
              let v = Workloads.Prng.int rng 101 - 50 in
              let lo = v - Workloads.Prng.int rng 8 in
              let hi = v + Workloads.Prng.int rng 8 in
              (x, v, lo, hi))
            (Dfg.Graph.inputs g)
        in
        let src =
          Dfg.Parser.to_source g
          ^ String.concat ""
              (List.map
                 (fun (x, _, lo, hi) ->
                   Printf.sprintf "range %s %d %d\n" x lo hi)
                 annotated)
        in
        (src, List.map (fun (x, v, _, _) -> (x, v)) annotated))
      (pair (Helpers.wide_dag_gen ~max_ops:20 ()) (int_bound 100_000)))

let analyze_sound_on_random_dags =
  Helpers.qcheck ~count:200 "inferred facts contain concrete evaluation"
    annotated_dag_gen
    (fun (src, env) ->
      let g = parse_exn src in
      let t = R.analyze g in
      match Sim.Eval.run g env with
      | Error d -> Alcotest.failf "concrete eval failed: %s" (Diag.to_string d)
      | Ok values ->
          List.for_all (fun (name, v) -> R.contains (R.fact_of t name) v) values)

(* Declaring each node's own inferred width back onto the graph must
   never report overflow or truncation: the contract matches the fact
   exactly, so either would be a false positive. (Unreachable-arm and
   constant-result warnings may legitimately fire on random ranges.) *)
let no_false_positive_overflows =
  Helpers.qcheck ~count:200 "self-inferred widths never overflow"
    annotated_dag_gen
    (fun (src, _env) ->
      let g = parse_exn src in
      let t = R.analyze g in
      let src' =
        src
        ^ String.concat ""
            (List.map
               (fun nd ->
                 Printf.sprintf "width %s %d\n" nd.Dfg.Graph.name
                   (R.width_of t nd.Dfg.Graph.name))
               (Dfg.Graph.nodes g))
      in
      List.for_all
        (fun c -> c <> "width.overflow" && c <> "width.truncation")
        (codes (R.check (parse_exn src'))))

(* ---- Fixpoint termination --------------------------------------------- *)

let corpus_fixpoint () =
  List.iter
    (fun (name, g) ->
      let t = R.analyze g in
      Alcotest.(check int) (name ^ ": one topological pass") 1 (R.passes t);
      Alcotest.(check int) (name ^ ": unannotated, no findings") 0
        (List.length (R.check g)))
    (Workloads.Classic.all ())

let loop_carried_fixpoint () =
  (* x / x__next is the add_iteration_control convention: the growing
     accumulator must be widened to a fixpoint, not iterated forever. *)
  let g =
    parse_exn
      "input x k\nrange x 0 0\nrange k 1 1\nx__next = add x k\n"
  in
  let t = R.analyze g in
  Alcotest.(check bool) "terminates within the pass budget" true
    (R.passes t <= 16);
  Alcotest.(check bool) "fixpoint covers later iterations" true
    (R.contains (R.fact_of t "x" ) 1_000_000);
  Alcotest.(check int) "no findings" 0 (List.length (R.check g))

let fuzz_fixpoint =
  Helpers.qcheck ~count:150 "fixpoint terminates on fuzz DAGs"
    (Helpers.guarded_dag_gen ~max_ops:18 ())
    (fun g ->
      let t = R.analyze g in
      R.passes t <= 16 && R.check g = [])

let near_linear_smoke () =
  (* 25k ops: the fixpoint must stay one topological pass and finish
     promptly — a hang or quadratic blow-up times the suite out. *)
  let g =
    Workloads.Random_dag.generate_exn
      ~spec:{ Workloads.Random_dag.default with Workloads.Random_dag.ops = 25_000 }
      ~seed:42 ()
  in
  let t = R.analyze g in
  Alcotest.(check int) "one pass on a loop-free DAG" 1 (R.passes t);
  Alcotest.(check int) "25k facts, no findings" 0 (List.length (R.check g))

let suite =
  [
    test "min-width basics" min_width_basics;
    test "inference example" inference_example;
    test "unannotated graph is clean" unannotated_clean;
    test "planted overflow is a static error" planted_overflow;
    test "possible overflow is a warning" truncation_warning;
    test "narrow nodes get faster delays" narrow_nodes_get_faster_delays;
    join_monotone;
    widen_over_join;
    join_keeps_members;
    transfer_over_approximates;
    analyze_sound_on_random_dags;
    no_false_positive_overflows;
    test "corpus fixpoint" corpus_fixpoint;
    test "loop-carried fixpoint" loop_carried_fixpoint;
    fuzz_fixpoint;
    test "25k-op near-linear smoke" near_linear_smoke;
  ]
