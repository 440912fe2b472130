(* MFSA's decisions, pinned. Each design runs through MFSA in both design
   styles, time- and resource-constrained, and everything MFSA decides is
   rendered and digested: the schedule, the ALU assignment, the bank-port
   and register binding, the cost, and every iteration's node, step, ALU
   and energies (printed with %.17g, so a change in the last bit of an
   energy term shows). The literals were computed with the MFSA whose f_REG
   rebuilt every lifetime by a scan of all nodes per value; a rewrite of the
   energy terms must leave every digest unchanged. No design here uses
   functional pipelining: that is where the sharing rule across overlapped
   iterations moves decisions on purpose (see [Test_sharing]). On a
   mismatch the failure prints the whole table, ready to paste. *)

let test name f = Alcotest.test_case name `Quick f

let render (o : Core.Mfsa.outcome) =
  let b = Buffer.create 1024 in
  let p fmt = Printf.bprintf b fmt in
  let s = o.Core.Mfsa.schedule in
  let dp = o.Core.Mfsa.datapath in
  p "cs=%d start=" s.Core.Schedule.cs;
  Array.iter (p "%d,") s.Core.Schedule.start;
  List.iter
    (fun a ->
      p ";alu%d:%s:" a.Rtl.Datapath.a_id
        a.Rtl.Datapath.a_kind.Celllib.Library.aname;
      List.iter (p "%d,") a.Rtl.Datapath.a_ops)
    dp.Rtl.Datapath.alus;
  List.iter
    (fun m ->
      p ";port%d:%s.%d:" m.Rtl.Datapath.m_id m.Rtl.Datapath.m_bank
        m.Rtl.Datapath.m_port;
      List.iter (p "%d,") m.Rtl.Datapath.m_ops)
    dp.Rtl.Datapath.mems;
  p ";regs=";
  List.iter
    (fun (v, r) -> p "%s:%d," v r)
    dp.Rtl.Datapath.regs.Rtl.Left_edge.reg_of;
  let c = o.Core.Mfsa.cost in
  p ";cost=%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d,%d,%d,%d" c.Rtl.Cost.total
    c.Rtl.Cost.alu_area c.Rtl.Cost.mux_area c.Rtl.Cost.reg_area
    c.Rtl.Cost.mem_area c.Rtl.Cost.n_alus c.Rtl.Cost.n_regs c.Rtl.Cost.n_mux
    c.Rtl.Cost.n_mux_inputs c.Rtl.Cost.n_mem_ports;
  List.iter
    (fun it ->
      p ";it%d@%d:%d:%b:%b:%.17g:%.17g" it.Core.Mfsa.it_node
        it.Core.Mfsa.it_step it.Core.Mfsa.it_alu it.Core.Mfsa.it_fresh
        it.Core.Mfsa.it_widened it.Core.Mfsa.it_energy it.Core.Mfsa.it_worst)
    o.Core.Mfsa.iterations;
  Buffer.contents b

(* Resource caps: a third of each compute class's operations, and at
   least two units, so that style 2 (no ALU next to its own predecessor)
   can mostly be met. *)
let caps g =
  List.filter_map
    (fun (c, n) ->
      if Dfg.Graph.is_mem_class c then None else Some (c, max 2 (n / 3)))
    (Dfg.Graph.count_by_class g)

(* One digest over the four runs of a design; an error is rendered too, so
   a design that starts or stops failing also changes its digest. *)
let digest g =
  let library = Celllib.Ncr.for_graph g in
  let config = Core.Config.of_library library in
  let cs = Dfg.Bounds.critical_path g + 1 in
  let show = function
    | Ok o -> render o
    | Error d -> "error:" ^ Diag.to_string d
  in
  List.concat_map
    (fun style ->
      [ show (Core.Mfsa.run ~config ~style ~library ~cs g);
        show
          (Core.Mfsa.run_resource ~config ~style ~library ~limits:(caps g) g)
      ])
    [ Core.Mfsa.Unrestricted; Core.Mfsa.No_self_loop ]
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let check_table what designs expected =
  let actual = List.map (fun (name, g) -> (name, digest g)) designs in
  if actual <> expected then
    Alcotest.failf "%s: MFSA decisions changed%s\nactual table:\n%s" what
      (String.concat ""
         (List.map
            (fun (name, d) ->
              match List.assoc_opt name expected with
              | Some d' when String.equal d d' -> ""
              | _ -> "\n  differs: " ^ name)
            actual))
      (String.concat "\n"
         (List.map
            (fun (name, d) -> Printf.sprintf "  (%S, %S);" name d)
            actual))

let table2_designs () =
  Workloads.Classic.all ()
  @ [
      ("diffeq", Workloads.Classic.diffeq ());
      ("facet", Workloads.Classic.facet ());
      ("biquad", Workloads.Classic.biquad ());
      ("cond", Workloads.Classic.cond_example ());
    ]

let table2 () =
  check_table "Table 2 designs" (table2_designs ())
    [
      ("ex1", "eaedd9070463015bbff453477b7e1deb");
      ("ex2", "a55ac318fec755afe3fdc3e24a388a3c");
      ("ex3", "35229f1899538738cbaac505315fd05e");
      ("ex4", "1488a7d3da38846c9ca6c6b340fa9534");
      ("ex5", "fbae9887dbec82e0e0024131c039eba8");
      ("ex6", "839b5a203d9f2cb964b8f4ed9f997606");
      ("diffeq", "7123e31e22e626e2b2f02fc8401ee4d2");
      ("facet", "e730a61a3c3f5af891e7dc7a96fe5483");
      ("biquad", "bec546d4e31bfdeec9478d68782645d8");
      ("cond", "d476f3f92065c8da918d542d5eb34ef8");
    ]

let example_files () =
  let load read name =
    (name, Helpers.check_okd name (read (Helpers.example_file name)))
  in
  let dfg = load Dfg.Parser.parse_file
  and beh = load Dfg.Frontend.compile_file in
  check_table "example files"
    [ dfg "diffeq8.dfg"; dfg "ewf8.dfg"; dfg "fir4.dfg"; dfg "fir4mem.dfg";
      dfg "ewfmem.dfg"; beh "diffeq.beh"; beh "cond.beh" ]
    [
      ("diffeq8.dfg", "7123e31e22e626e2b2f02fc8401ee4d2");
      ("ewf8.dfg", "839b5a203d9f2cb964b8f4ed9f997606");
      ("fir4.dfg", "d25c81ab8f7de4dd82d30ca6609a9b51");
      ("fir4mem.dfg", "d776623f51cb3d6bfa665ea4190c4945");
      ("ewfmem.dfg", "6adfde9023f4672322322f68cd835285");
      ("diffeq.beh", "dcfc73a7c1981eaa1d6919f0ca8c7167");
      ("cond.beh", "23a7e292505d586c2ea17a61b18b6108");
    ]

(* 30 seeded DAGs of 6 to 35 ops: the even seeds unguarded, the odd ones
   with about 40% of the ops guarded on a comparison. *)
let random_dags () =
  check_table "random DAGs"
    (List.init 30 (fun k ->
         let guarded = k mod 2 = 1 in
         let spec =
           { Workloads.Random_dag.default with
             Workloads.Random_dag.ops = 6 + k;
             kinds =
               ([ Dfg.Op.Add; Dfg.Op.Sub; Dfg.Op.Mul ]
               @ if guarded then [ Dfg.Op.Lt ] else []);
             guard_prob = (if guarded then 0.4 else 0.);
           }
         in
         ( Printf.sprintf "dag%d" k,
           Workloads.Random_dag.generate_exn ~spec ~seed:(1000 + k) () )))
    [
      ("dag0", "94eb162cecd5f03e99897776c9f02fb8");
      ("dag1", "e69719339fd3452f19c0ad8118c52904");
      ("dag2", "d1f93f990671dbd39e9fafbf6d44449f");
      ("dag3", "f2adff81f84fe8cdab280a246a9b0ecc");
      ("dag4", "47473c80741e06bd1906567e8b663420");
      ("dag5", "4bbb42289b74e2018387d73a12350ec9");
      ("dag6", "a6a5050319e262f52e47e4bce555f11c");
      ("dag7", "93b4196c48687189c70b782ddc3787b9");
      ("dag8", "ab38c19ba85c0a45f1cb7f0d93c5d81c");
      ("dag9", "193453b753fd1cd530ea4190ed6b0d38");
      ("dag10", "9ddb776026d3adbad6b8a9732ca9ac06");
      ("dag11", "cfaa9f5a302e001f9c07f4ccbe6c6c2b");
      ("dag12", "6d4c337866ddf57123999d4e02ee85c9");
      ("dag13", "8a1481134d6a35fa2915c597b5edc250");
      ("dag14", "748fd2539c28128b15ec13a138a4c086");
      ("dag15", "eb15e15f6fe107ab384a933262830c77");
      ("dag16", "73eee27dcc33b084e94051603fd75e2d");
      ("dag17", "aa2f964a17221946bb2d234d761366f5");
      ("dag18", "8592059341611dcefa2ae803bb969e9e");
      ("dag19", "f634a1a51f90ae6a6304621b1e8f5cc1");
      ("dag20", "fc5303e5353d5fb0b7961826e66337f2");
      ("dag21", "80ec27287216bcf0941a9acafbdf7834");
      ("dag22", "f833fb7ae34c9065a82341d9a2f1f533");
      ("dag23", "23717eae3efaca362110d4ef7a57c202");
      ("dag24", "45bab32b7bb0ef03bea36f5f59009673");
      ("dag25", "3cb82fea037d3912d3c8d7e04be53c97");
      ("dag26", "402a8381947d15d5f2aa836d0c16c7b8");
      ("dag27", "664f3934303433de7cfe8ed2c54bea79");
      ("dag28", "177d47344aa94f86907445d7446f1982");
      ("dag29", "6ce99c5b67f1b6064e369c507b6be44b");
    ]

let suite =
  [
    test "Table 2 designs decide as pinned" table2;
    test "example files decide as pinned" example_files;
    test "random DAGs decide as pinned" random_dags;
  ]
