let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let source_expr = function
  | Datapath.From_reg r -> Printf.sprintf "reg_%d" r
  | Datapath.From_alu a -> Printf.sprintf "alu_out_%d" a
  | Datapath.From_input v -> sanitize v
  | Datapath.From_mem a -> "mem_" ^ sanitize a

let emit ?(module_name = "design") ?widths dp ctrl =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let g = dp.Datapath.graph in
  (* Bus width per value name, capped at the machine word: the range
     analysis reports up to 63 bits, but the datapath is a 32-bit machine
     and a value needing more than the word is simply a full-width bus. *)
  let width_of name =
    match widths with
    | None -> 32
    | Some w -> max 1 (min 32 (w name))
  in
  let widest names = List.fold_left (fun acc v -> max acc (width_of v)) 1 names in
  let alu_width a =
    widest
      (List.map (fun i -> (Dfg.Graph.node g i).Dfg.Graph.name) a.Datapath.a_ops)
  in
  let inputs = List.map sanitize (Dfg.Graph.inputs g) in
  add "module %s(clk, rst%s%s);\n" (sanitize module_name)
    (if inputs = [] then "" else ", ")
    (String.concat ", " inputs);
  add "  input clk, rst;\n";
  List.iter2
    (fun raw i -> add "  input [%d:0] %s;\n" (width_of raw - 1) i)
    (Dfg.Graph.inputs g) inputs;
  add "  // %d control steps, %d ALUs, %d registers\n" ctrl.Controller.steps
    (List.length dp.Datapath.alus)
    dp.Datapath.regs.Left_edge.count;
  List.iter
    (fun (a : Dfg.Graph.array_decl) ->
      add "  reg [31:0] mem_%s [0:%d]; // bank %s\n" (sanitize a.Dfg.Graph.a_name)
        (a.Dfg.Graph.a_size - 1) a.Dfg.Graph.a_bank)
    (Dfg.Graph.arrays g);
  add "  reg [%d:0] state;\n"
    (let rec bits n = if n <= 1 then 1 else 1 + bits (n / 2) in
     bits ctrl.Controller.steps - 1);
  for r = 0 to dp.Datapath.regs.Left_edge.count - 1 do
    let vals = Left_edge.values_of dp.Datapath.regs r in
    add "  reg [%d:0] reg_%d; // holds: %s\n"
      (widest vals - 1)
      r
      (String.concat ", " vals)
  done;
  List.iter
    (fun a ->
      add "  wire [%d:0] alu_out_%d; // %s ops: %s\n"
        (alu_width a - 1)
        a.Datapath.a_id a.Datapath.a_kind.Celllib.Library.aname
        (String.concat ","
           (List.map
              (fun i -> (Dfg.Graph.node g i).Dfg.Graph.name)
              a.Datapath.a_ops)))
    dp.Datapath.alus;
  List.iter
    (fun (mp : Datapath.mem_port) ->
      add "  wire [31:0] alu_out_%d; // bank %s port %d: %s\n"
        mp.Datapath.m_id mp.Datapath.m_bank mp.Datapath.m_port
        (String.concat ","
           (List.map
              (fun i -> (Dfg.Graph.node g i).Dfg.Graph.name)
              mp.Datapath.m_ops)))
    dp.Datapath.mems;
  let guard_expr gs =
    String.concat ""
      (List.map
         (fun (c, arm) ->
           Printf.sprintf " && (%s%s != 0)"
             (if arm then "" else "!")
             (sanitize c))
         gs)
  in
  add "  always @(posedge clk) begin\n";
  add "    if (rst) begin\n      state <= 1;\n";
  List.iter
    (fun (v, r) -> add "      reg_%d <= %s;\n" r (sanitize v))
    ctrl.Controller.input_loads;
  add "    end else begin\n";
  add "      state <= (state == %d) ? %d : state + 1;\n" ctrl.Controller.steps
    ctrl.Controller.steps;
  List.iter
    (fun m ->
      match m.Controller.m_dest with
      | None -> ()
      | Some dest ->
          let nd = Dfg.Graph.node g m.Controller.m_node in
          add "      if (state == %d%s) reg_%d <= alu_out_%d; // %s\n"
            m.Controller.m_latch_step
            (guard_expr m.Controller.m_guards)
            dest m.Controller.m_alu nd.Dfg.Graph.name)
    ctrl.Controller.micros;
  (* Memory writes commit on the store's latch edge, like registers. *)
  List.iter
    (fun m ->
      let nd = Dfg.Graph.node g m.Controller.m_node in
      if nd.Dfg.Graph.kind = Dfg.Op.Store then
        match m.Controller.m_sources with
        | [ Datapath.From_mem a; idx; data ] ->
            add "      if (state == %d%s) mem_%s[%s] <= %s; // %s\n"
              m.Controller.m_latch_step
              (guard_expr m.Controller.m_guards)
              (sanitize a) (source_expr idx) (source_expr data)
              nd.Dfg.Graph.name
        | _ -> ())
    ctrl.Controller.micros;
  add "    end\n  end\n";
  (* Combinational ALU outputs: a per-state operand selection. Each arm
     carries its op's guards, as its latch line does: exclusive ops sharing
     a unit in one state are told apart by their conditions. *)
  List.iter
    (fun a ->
      let cases =
        List.filter
          (fun m -> m.Controller.m_alu = a.Datapath.a_id)
          ctrl.Controller.micros
      in
      add "  assign alu_out_%d =\n" a.Datapath.a_id;
      List.iter
        (fun m ->
          let nd = Dfg.Graph.node g m.Controller.m_node in
          let expr =
            match (m.Controller.m_sources, nd.Dfg.Graph.kind) with
            | [ x ], k ->
                Printf.sprintf "(%s %s)" (Dfg.Op.symbol k) (source_expr x)
            | [ x; y ], k ->
                Printf.sprintf "(%s %s %s)" (source_expr x) (Dfg.Op.symbol k)
                  (source_expr y)
            | _ -> Printf.sprintf "%d'hx" (alu_width a)
          in
          add "    (state == %d%s) ? %s : // %s\n" m.Controller.m_step
            (guard_expr m.Controller.m_guards)
            expr nd.Dfg.Graph.name)
        cases;
      add "    %d'hx;\n" (alu_width a))
    dp.Datapath.alus;
  (* Bank-port outputs: a load reads its array asynchronously; a store's
     port output is the written data, so chained consumers of either work
     like chained ALU reads. *)
  List.iter
    (fun (mp : Datapath.mem_port) ->
      let cases =
        List.filter
          (fun mi -> mi.Controller.m_alu = mp.Datapath.m_id)
          ctrl.Controller.micros
      in
      add "  assign alu_out_%d =\n" mp.Datapath.m_id;
      List.iter
        (fun mi ->
          let nd = Dfg.Graph.node g mi.Controller.m_node in
          let expr =
            match (mi.Controller.m_sources, nd.Dfg.Graph.kind) with
            | [ Datapath.From_mem a; idx ], Dfg.Op.Load ->
                Printf.sprintf "mem_%s[%s]" (sanitize a) (source_expr idx)
            | [ Datapath.From_mem _; _; data ], Dfg.Op.Store ->
                source_expr data
            | _ -> "32'hx"
          in
          add "    (state == %d%s) ? %s : // %s\n" mi.Controller.m_step
            (guard_expr mi.Controller.m_guards)
            expr nd.Dfg.Graph.name)
        cases;
      add "    32'hx;\n")
    dp.Datapath.mems;
  add "endmodule\n";
  Buffer.contents buf
