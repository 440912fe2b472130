type run_result = {
  values : (string * int) list;
  final_regs : int option array;
  trace : step_snapshot list;
}

and step_snapshot = {
  snap_step : int;
  snap_regs : int option array;
  snap_wires : (int * int) list;
}

exception Stuck of string

(* Two's-complement truncation to [w] bits. Identity at [w >= 63]: the
   abstract machine is an OCaml [int] machine, so 63 bits means "the full
   word" and there is nothing to drop. *)
let truncate ~width:w v =
  if w >= 63 then v
  else
    let m = 1 lsl w in
    let r = ((v mod m) + m) mod m in
    if r >= 1 lsl (w - 1) then r - m else r

let run ?widths dp ctrl ~env =
  let g = dp.Rtl.Datapath.graph in
  (* Under [widths], every bus and register is as narrow as the range
     analysis proved sufficient: values are truncated wherever the real
     hardware would physically drop bits — at input latching, on input
     wires, and on every ALU output. If the analysis is sound the
     truncations are identities; if not, the golden comparison in
     [Equiv.check_narrowing] sees the damage. *)
  let trunc name v =
    match widths with
    | None -> v
    | Some w -> truncate ~width:(w name) v
  in
  let regs = Array.make (max 1 dp.Rtl.Datapath.regs.Rtl.Left_edge.count) None in
  (* Banked memories, zero-initialised like the golden model. A store's
     write commits on its latch edge (with the register latches below), so
     a same-step WAR load still reads the old value. *)
  let mems : (string, int array) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (a : Dfg.Graph.array_decl) ->
      Hashtbl.replace mems a.Dfg.Graph.a_name (Array.make a.Dfg.Graph.a_size 0))
    (Dfg.Graph.arrays g);
  let computed : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let lookup_value name =
    match Hashtbl.find_opt computed name with
    | Some v -> Some v
    | None -> List.assoc_opt name env
  in
  try
    List.iter
      (fun (v, r) ->
        match List.assoc_opt v env with
        | Some x -> regs.(r) <- Some (trunc v x)
        | None -> raise (Stuck (Printf.sprintf "input %S missing" v)))
      ctrl.Rtl.Controller.input_loads;
    let pending = ref [] (* (latch_step, reg, value) *) in
    let mem_pending = ref [] (* (latch_step, array, index, value) *) in
    let rev_trace = ref [] in
    for s = 1 to ctrl.Rtl.Controller.steps do
      let wires = Hashtbl.create 8 in
      List.iter
        (fun m ->
          if m.Rtl.Controller.m_step = s then begin
            let nd = Dfg.Graph.node g m.Rtl.Controller.m_node in
            let enabled =
              List.for_all
                (fun (c, arm) ->
                  match lookup_value c with
                  | Some v -> (v <> 0) = arm
                  | None ->
                      raise
                        (Stuck
                           (Printf.sprintf "guard %S of %s not computed" c
                              nd.Dfg.Graph.name)))
                m.Rtl.Controller.m_guards
            in
            if enabled then begin
              let read = function
                | Rtl.Datapath.From_reg r -> (
                    match regs.(r) with
                    | Some v -> v
                    | None ->
                        raise
                          (Stuck
                             (Printf.sprintf
                                "%s reads undefined reg%d at step %d"
                                nd.Dfg.Graph.name r s)))
                | Rtl.Datapath.From_alu a -> (
                    match Hashtbl.find_opt wires a with
                    | Some v -> v
                    | None ->
                        raise
                          (Stuck
                             (Printf.sprintf
                                "%s reads dead wire alu%d at step %d"
                                nd.Dfg.Graph.name a s)))
                | Rtl.Datapath.From_input v -> (
                    match List.assoc_opt v env with
                    | Some x -> trunc v x
                    | None ->
                        raise (Stuck (Printf.sprintf "input %S missing" v)))
                | Rtl.Datapath.From_mem a ->
                    raise
                      (Stuck
                         (Printf.sprintf
                            "%s routes bank interface mem:%s as a data operand"
                            nd.Dfg.Graph.name a))
              in
              let v =
                match (nd.Dfg.Graph.kind, m.Rtl.Controller.m_sources) with
                | Dfg.Op.Load, [ Rtl.Datapath.From_mem a; idx ] ->
                    let mem = Hashtbl.find mems a in
                    let idx = read idx in
                    if idx >= 0 && idx < Array.length mem then mem.(idx) else 0
                | Dfg.Op.Store, [ Rtl.Datapath.From_mem a; idx; data ] ->
                    let idx = read idx and data = read data in
                    mem_pending :=
                      (m.Rtl.Controller.m_latch_step, a, idx, data)
                      :: !mem_pending;
                    data
                | k, _ when Dfg.Op.is_mem k ->
                    raise
                      (Stuck
                         (Printf.sprintf "%s has malformed memory sources"
                            nd.Dfg.Graph.name))
                | k, srcs -> Dfg.Op.eval k (List.map read srcs)
              in
              let v = trunc nd.Dfg.Graph.name v in
              Hashtbl.replace computed nd.Dfg.Graph.name v;
              Hashtbl.replace wires m.Rtl.Controller.m_alu v;
              match m.Rtl.Controller.m_dest with
              | Some r ->
                  pending := (m.Rtl.Controller.m_latch_step, r, v) :: !pending
              | None -> ()
            end
          end)
        ctrl.Rtl.Controller.micros;
      (* Closing edge: latch every result whose finish step is [s]. *)
      let now, later =
        List.partition (fun (latch, _, _) -> latch = s) !pending
      in
      List.iter (fun (_, r, v) -> regs.(r) <- Some v) now;
      pending := later;
      let mem_now, mem_later =
        List.partition (fun (latch, _, _, _) -> latch = s) !mem_pending
      in
      (* Same-edge writes commit in issue order; out-of-bounds are dropped. *)
      List.iter
        (fun (_, a, idx, v) ->
          let mem = Hashtbl.find mems a in
          if idx >= 0 && idx < Array.length mem then mem.(idx) <- v)
        (List.rev mem_now);
      mem_pending := mem_later;
      rev_trace :=
        {
          snap_step = s;
          snap_regs = Array.copy regs;
          snap_wires =
            List.sort compare
              (Hashtbl.fold (fun a v acc -> (a, v) :: acc) wires []);
        }
        :: !rev_trace
    done;
    Ok
      {
        values =
          List.filter_map
            (fun nd ->
              Option.map
                (fun v -> (nd.Dfg.Graph.name, v))
                (Hashtbl.find_opt computed nd.Dfg.Graph.name))
            (Dfg.Graph.nodes g);
        final_regs = regs;
        trace = List.rev !rev_trace;
      }
  with Stuck msg -> Error (Diag.internal ~code:"sim.machine" msg)
