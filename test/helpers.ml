(* Shared helpers for the test suite. *)

let graph_exn rows ~inputs =
  match Dfg.Graph.of_ops ~inputs rows with
  | Ok g -> g
  | Error msg -> Alcotest.failf "test graph invalid: %s" msg

let op name kind args = (name, kind, args, [])

(* A small diamond: two independent mults feeding an add. *)
let diamond () =
  graph_exn ~inputs:[ "a"; "b"; "c"; "d" ]
    [
      op "m1" Dfg.Op.Mul [ "a"; "b" ];
      op "m2" Dfg.Op.Mul [ "c"; "d" ];
      op "s" Dfg.Op.Add [ "m1"; "m2" ];
    ]

(* A pure chain a -> b -> c -> d of adds. *)
let chain4 () =
  graph_exn ~inputs:[ "x"; "y" ]
    [
      op "c1" Dfg.Op.Add [ "x"; "y" ];
      op "c2" Dfg.Op.Add [ "c1"; "y" ];
      op "c3" Dfg.Op.Add [ "c2"; "y" ];
      op "c4" Dfg.Op.Add [ "c3"; "y" ];
    ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let count_occurrences ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then 0
  else begin
    let count = ref 0 in
    for i = 0 to m - n do
      if String.sub s i n = sub then incr count
    done;
    !count
  end

let check_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s failed: %s" what msg

let check_schedule s =
  match Core.Schedule.check_diags s with
  | [] -> ()
  | ds ->
      Alcotest.failf "schedule invalid: %s"
        (String.concat "; " (List.map Diag.message ds))

let check_err what = function
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" what
  | Error err -> err

(* Diag-returning interfaces: render the diagnostic for failure output. *)
let check_okd what = function
  | Ok v -> v
  | Error d -> Alcotest.failf "%s failed: %s" what (Diag.to_string d)

let check_errd what = function
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" what
  | Error (d : Diag.t) -> d

let mfs_time ?config ?max_units g cs =
  check_okd "MFS"
    (Core.Mfs.run ?config ?max_units g (Core.Mfs.Time { cs }))

let fu_count s klass =
  Option.value ~default:0 (List.assoc_opt klass (Core.Schedule.fu_counts s))

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Random DAG generator wrapped for qcheck: draws a seed, builds the DAG. *)
let dag_gen ?(max_ops = 24) () =
  QCheck2.Gen.map
    (fun (seed, ops) ->
      Workloads.Random_dag.generate_exn
        ~spec:{ Workloads.Random_dag.default with Workloads.Random_dag.ops }
        ~seed ())
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 max_ops))

(* Random DAGs over a wide kind universe (shifts, division, logic,
   comparisons) — exercises multi-class scheduling and ALU capability
   handling beyond the arithmetic-only default. *)
let wide_dag_gen ?(max_ops = 20) () =
  let kinds =
    [ Dfg.Op.Add; Dfg.Op.Sub; Dfg.Op.Mul; Dfg.Op.Div; Dfg.Op.And;
      Dfg.Op.Or; Dfg.Op.Xor; Dfg.Op.Shl; Dfg.Op.Lt; Dfg.Op.Neg ]
  in
  QCheck2.Gen.map
    (fun (seed, ops) ->
      Workloads.Random_dag.generate_exn
        ~spec:{ Workloads.Random_dag.default with Workloads.Random_dag.ops; kinds }
        ~seed ())
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 max_ops))

(* Same, with a conditional context: ~40% of the ops guarded. *)
let guarded_dag_gen ?(max_ops = 18) () =
  QCheck2.Gen.map
    (fun (seed, ops) ->
      Workloads.Random_dag.generate_exn
        ~spec:
          { Workloads.Random_dag.default with
            Workloads.Random_dag.ops; guard_prob = 0.4 }
        ~seed ())
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 2 max_ops))

(* A crash mid-append: cut a store inside its last line, keeping 10
   bytes of it and no newline. *)
let tear_last_line path =
  let body = In_channel.with_open_bin path In_channel.input_all in
  let last = String.rindex_from body (String.length body - 2) '\n' in
  Unix.truncate path (last + 1 + 10)
