let internal ?nodes ~code fmt = Finding.error ?nodes Diag.Internal ~code fmt

let check ?bus ?(share_mutex = true) ?latency dp ctrl ~delay =
  let g = dp.Rtl.Datapath.graph in
  let fs = ref [] in
  let add f = fs := f :: !fs in
  let name i = (Dfg.Graph.node g i).Dfg.Graph.name in
  let start i = dp.Rtl.Datapath.start.(i) in
  let finish i = start i + delay i - 1 in
  let exclusive i j = Dfg.Graph.mutually_exclusive g i j in
  let micros = Array.of_list ctrl.Rtl.Controller.micros in
  (* Micro-order coverage: exactly one issue per node, in its start step. *)
  let micro_of = Hashtbl.create 16 in
  Array.iteri
    (fun idx m ->
      let i = m.Rtl.Controller.m_node in
      if Hashtbl.mem micro_of i then
        add
          (internal ~nodes:[ name i ] ~code:"lint.micro-order"
             "node %s is issued by more than one micro-order" (name i))
      else Hashtbl.add micro_of i (idx, m))
    micros;
  List.iter
    (fun nd ->
      let i = nd.Dfg.Graph.id in
      match Hashtbl.find_opt micro_of i with
      | None ->
          add
            (internal ~nodes:[ name i ] ~code:"lint.micro-order"
               "node %s has no micro-order" (name i))
      | Some (_, m) ->
          if m.Rtl.Controller.m_step <> start i then
            add
              (internal ~nodes:[ name i ] ~code:"lint.micro-order"
                 "node %s is issued in step %d but scheduled at step %d"
                 (name i) m.Rtl.Controller.m_step (start i));
          (* The latch edge the controller recorded must be the finish step
             under the authoritative delay model. *)
          if m.Rtl.Controller.m_latch_step <> finish i then
            add
              (internal ~nodes:[ name i ] ~code:"lint.latch-mismatch"
                 "node %s latches at edge %d but finishes at step %d under \
                  the delay model"
                 (name i) m.Rtl.Controller.m_latch_step (finish i));
          let declared = m.Rtl.Controller.m_dest in
          let allocated =
            Rtl.Left_edge.register_of dp.Rtl.Datapath.regs (name i)
          in
          if declared <> allocated then
            add
              (internal ~nodes:[ name i ] ~code:"lint.latch-mismatch"
                 "node %s latches into %s but the allocation stores it in %s"
                 (name i)
                 (match declared with
                 | Some r -> Printf.sprintf "reg%d" r
                 | None -> "no register")
                 (match allocated with
                 | Some r -> Printf.sprintf "reg%d" r
                 | None -> "no register")))
    (Dfg.Graph.nodes g);
  (* Unit occupancy under the authoritative delay model: an ALU, and a bank
     port serving one access at a time. Ports always let exclusive accesses
     share, as [Rtl.Datapath.bind_ports] binds them. *)
  let conflicts ?share_mutex ~span ops =
    Rtl.Check.unit_conflicts ?share_mutex
      ~steps_overlap:(Rtl.Lifetime.steps_overlap ~latency) dp ~span ops
  in
  List.iter
    (fun a ->
      List.iter
        (fun (i, j) ->
          add
            (internal ~nodes:[ name i; name j ] ~code:"lint.alu-conflict"
               "ALU %d runs %s and %s in overlapping steps" a.Rtl.Datapath.a_id
               (name i) (name j)))
        (conflicts ~share_mutex ~span:(Rtl.Check.alu_span a ~delay)
           a.Rtl.Datapath.a_ops))
    dp.Rtl.Datapath.alus;
  List.iter
    (fun m ->
      List.iter
        (fun (i, j) ->
          add
            (internal ~nodes:[ name i; name j ] ~code:"mem.port-conflict"
               "bank %s port %d runs %s and %s in overlapping steps"
               m.Rtl.Datapath.m_bank m.Rtl.Datapath.m_port (name i) (name j)))
        (conflicts ~span:delay m.Rtl.Datapath.m_ops))
    dp.Rtl.Datapath.mems;
  (* Reaching definitions: every operand and guard of every micro-order. *)
  let clobbers ~reg ~from_edge ~upto_edge ~reader ~stored =
    (* Another micro latching into [reg] on an edge in (from_edge, upto_edge]
       kills the stored value before its last read. *)
    Array.iter
      (fun m' ->
        let j = m'.Rtl.Controller.m_node in
        if
          j <> stored
          && m'.Rtl.Controller.m_dest = Some reg
          && m'.Rtl.Controller.m_latch_step > from_edge
          && m'.Rtl.Controller.m_latch_step <= upto_edge
          && (not (exclusive j reader))
          && (stored < 0 || not (exclusive j stored))
        then
          add
            (internal
               ~nodes:[ name j; name reader ]
               ~code:"lint.reg-clobbered"
               "%s overwrites reg%d at edge %d before %s reads it at step %d"
               (name j) reg m'.Rtl.Controller.m_latch_step (name reader)
               (upto_edge + 1)))
      micros
  in
  Array.iteri
    (fun idx m ->
      let i = m.Rtl.Controller.m_node in
      let nd = Dfg.Graph.node g i in
      let s = m.Rtl.Controller.m_step in
      let args = nd.Dfg.Graph.args in
      if List.length m.Rtl.Controller.m_sources <> List.length args then
        add
          (internal ~nodes:[ name i ] ~code:"lint.operand-route"
             "node %s has %d operand(s) but %d source(s)" (name i)
             (List.length args)
             (List.length m.Rtl.Controller.m_sources))
      else
        List.iteri
          (fun k src ->
            let arg = List.nth args k in
            match (Dfg.Graph.find g arg, src) with
            | None, Rtl.Datapath.From_input v ->
                if not (String.equal v arg) then
                  add
                    (internal ~nodes:[ name i ] ~code:"lint.operand-route"
                       "operand %d of %s should read input %S, source says %S"
                       k (name i) arg v)
            | None, Rtl.Datapath.From_reg r -> (
                match List.assoc_opt arg ctrl.Rtl.Controller.input_loads with
                | Some r' when r' = r ->
                    clobbers ~reg:r ~from_edge:0 ~upto_edge:(s - 1) ~reader:i
                      ~stored:(-1)
                | Some r' ->
                    add
                      (internal ~nodes:[ name i ] ~code:"lint.operand-route"
                         "operand %d of %s reads reg%d but input %S is \
                          loaded into reg%d"
                         k (name i) r arg r')
                | None ->
                    add
                      (internal ~nodes:[ name i ] ~code:"lint.operand-route"
                         "operand %d of %s reads reg%d but input %S is never \
                          loaded"
                         k (name i) r arg))
            | None, Rtl.Datapath.From_alu a ->
                add
                  (internal ~nodes:[ name i ] ~code:"lint.operand-route"
                     "operand %d of %s chains from ALU %d but %S is a \
                      primary input"
                     k (name i) a arg)
            | Some p, Rtl.Datapath.From_reg r -> (
                let pid = p.Dfg.Graph.id in
                match
                  Rtl.Left_edge.register_of dp.Rtl.Datapath.regs arg
                with
                | Some r' when r' = r ->
                    if finish pid > s - 1 then
                      add
                        (internal
                           ~nodes:[ name i; name pid ]
                           ~code:"lint.operand-not-ready"
                           "%s reads %s from reg%d at step %d but it only \
                            latches at edge %d"
                           (name i) arg r s (finish pid))
                    else
                      clobbers ~reg:r ~from_edge:(finish pid)
                        ~upto_edge:(s - 1) ~reader:i ~stored:pid
                | Some r' ->
                    add
                      (internal
                         ~nodes:[ name i; name pid ]
                         ~code:"lint.operand-route"
                         "operand %d of %s reads reg%d but %s is stored in \
                          reg%d"
                         k (name i) r arg r')
                | None ->
                    add
                      (internal
                         ~nodes:[ name i; name pid ]
                         ~code:"lint.operand-route"
                         "operand %d of %s reads reg%d but %s is never \
                          registered"
                         k (name i) r arg))
            | Some p, Rtl.Datapath.From_alu a ->
                let pid = p.Dfg.Graph.id in
                if dp.Rtl.Datapath.alu_of.(pid) <> a then
                  add
                    (internal
                       ~nodes:[ name i; name pid ]
                       ~code:"lint.operand-route"
                       "operand %d of %s chains from ALU %d but %s runs on \
                        ALU %d"
                       k (name i) a arg dp.Rtl.Datapath.alu_of.(pid))
                else if start pid <> s || delay pid <> 1 then
                  add
                    (internal
                       ~nodes:[ name i; name pid ]
                       ~code:"lint.operand-not-ready"
                       "%s chains %s inside step %d but %s runs in steps \
                        %d..%d"
                       (name i) arg s arg (start pid) (finish pid))
                else begin
                  match Hashtbl.find_opt micro_of pid with
                  | Some (pidx, _) when pidx >= idx ->
                      add
                        (internal
                           ~nodes:[ name i; name pid ]
                           ~code:"lint.chain-order"
                           "chained producer %s is sequenced after consumer \
                            %s in step %d"
                           (name pid) (name i) s)
                  | _ -> ()
                end
            | Some p, Rtl.Datapath.From_input v ->
                add
                  (internal
                     ~nodes:[ name i; name p.Dfg.Graph.id ]
                     ~code:"lint.operand-route"
                     "operand %d of %s reads input %S but %s is computed by \
                      %s"
                     k (name i) v arg (name p.Dfg.Graph.id))
            | None, Rtl.Datapath.From_mem a ->
                if not (String.equal a arg) then
                  add
                    (internal ~nodes:[ name i ] ~code:"lint.operand-route"
                       "operand %d of %s should access array %S, source says \
                        %S"
                       k (name i) arg a)
            | Some p, Rtl.Datapath.From_mem a ->
                add
                  (internal
                     ~nodes:[ name i; name p.Dfg.Graph.id ]
                     ~code:"lint.operand-route"
                     "operand %d of %s accesses array %S but %s is computed \
                      by %s"
                     k (name i) a arg (name p.Dfg.Graph.id)))
          m.Rtl.Controller.m_sources;
      (* Guard conditions must be computed before (or earlier in) step s. *)
      List.iter
        (fun (c, _) ->
          match Dfg.Graph.find g c with
          | None -> () (* primary-input condition, always available *)
          | Some pc ->
              let pid = pc.Dfg.Graph.id in
              let same_step_ok =
                start pid = s
                &&
                match Hashtbl.find_opt micro_of pid with
                | Some (pidx, _) -> pidx < idx
                | None -> false
              in
              if not (finish pid <= s - 1 || same_step_ok) then
                add
                  (internal
                     ~nodes:[ name i; name pid ]
                     ~code:"lint.operand-not-ready"
                     "guard %S of %s is not computed before step %d" c
                     (name i) s))
        m.Rtl.Controller.m_guards)
    micros;
  (* Two non-exclusive latches into one register at one edge race. *)
  Array.iteri
    (fun idx m ->
      match m.Rtl.Controller.m_dest with
      | None -> ()
      | Some r ->
          Array.iteri
            (fun idx' m' ->
              if
                idx' > idx
                && m'.Rtl.Controller.m_dest = Some r
                && m'.Rtl.Controller.m_latch_step
                   = m.Rtl.Controller.m_latch_step
                && not
                     (exclusive m.Rtl.Controller.m_node
                        m'.Rtl.Controller.m_node)
              then
                add
                  (internal
                     ~nodes:
                       [
                         name m.Rtl.Controller.m_node;
                         name m'.Rtl.Controller.m_node;
                       ]
                     ~code:"lint.reg-write-conflict"
                     "%s and %s both latch into reg%d at edge %d"
                     (name m.Rtl.Controller.m_node)
                     (name m'.Rtl.Controller.m_node)
                     r m.Rtl.Controller.m_latch_step))
            micros)
    micros;
  (* Declared mux paths must carry every operand's source tag. *)
  List.iter
    (fun a ->
      let share = a.Rtl.Datapath.a_share in
      let known =
        share.Rtl.Mux_share.l1 @ share.Rtl.Mux_share.l2
      in
      List.iter
        (fun i ->
          match List.assoc_opt i dp.Rtl.Datapath.operand_sources with
          | None -> ()
          | Some srcs ->
              List.iter
                (fun src ->
                  let tag = Rtl.Datapath.source_tag src in
                  if not (List.mem tag known) then
                    add
                      (internal ~nodes:[ name i ] ~code:"lint.mux-route"
                         "source %s of %s is missing from ALU %d's \
                          multiplexer inputs"
                         tag (name i) a.Rtl.Datapath.a_id))
                srcs)
        a.Rtl.Datapath.a_ops)
    dp.Rtl.Datapath.alus;
  (* Bus races: two same-step transfers on one bus. *)
  let bus = match bus with Some b -> b | None -> Rtl.Bus.allocate dp in
  List.iter
    (fun d ->
      let code =
        if d.Diag.code = "bus.conflict" then "lint.bus-conflict"
        else "lint.bus-range"
      in
      add (Finding.make (Diag.make Diag.Internal ~code d.Diag.message)))
    (Rtl.Bus.check_diags bus);
  List.rev !fs
