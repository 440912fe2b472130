type source =
  | From_reg of int
  | From_alu of int
  | From_input of string
  | From_mem of string

type alu = {
  a_id : int;
  a_kind : Celllib.Library.alu_kind;
  a_ops : int list;
  a_share : Mux_share.t;
}

type mem_port = {
  m_id : int;
  m_bank : string;
  m_port : int;
  m_ops : int list;
}

type t = {
  graph : Dfg.Graph.t;
  start : int array;
  cs : int;
  alus : alu list;
  alu_of : int array;
  regs : Left_edge.t;
  mems : mem_port list;
  operand_sources : (int * source list) list;
}

let source_tag = function
  | From_reg r -> Printf.sprintf "reg%d" r
  | From_alu a -> Printf.sprintf "alu%d" a
  | From_input v -> Printf.sprintf "in:%s" v
  | From_mem a -> Printf.sprintf "mem:%s" a

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let validate_assignments g assignments =
  let n = Dfg.Graph.num_nodes g in
  let seen = Array.make n 0 in
  let rec check_each = function
    | [] -> Ok ()
    | (kind, ops) :: rest ->
        let rec check_ops = function
          | [] -> check_each rest
          | i :: more ->
              if i < 0 || i >= n then
                Error (Printf.sprintf "assignment references unknown node %d" i)
              else begin
                seen.(i) <- seen.(i) + 1;
                let nd = Dfg.Graph.node g i in
                if Dfg.Op.is_mem nd.Dfg.Graph.kind then
                  Error
                    (Printf.sprintf
                       "memory access %s runs on a bank port, not ALU %s"
                       nd.Dfg.Graph.name kind.Celllib.Library.aname)
                else if
                  not (Celllib.Op_set.mem nd.Dfg.Graph.kind kind.Celllib.Library.ops)
                then
                  Error
                    (Printf.sprintf "op %s (%s) assigned to incapable ALU %s"
                       nd.Dfg.Graph.name
                       (Dfg.Op.to_string nd.Dfg.Graph.kind)
                       kind.Celllib.Library.aname)
                else check_ops more
              end
        in
        check_ops ops
  in
  let* () = check_each assignments in
  let missing = ref None and dup = ref None in
  Array.iteri
    (fun i c ->
      (* Memory accesses are bound to bank ports by [elaborate] itself, so
         their absence from the ALU assignment is the expected state. *)
      if
        c = 0 && !missing = None
        && not (Dfg.Op.is_mem (Dfg.Graph.node g i).Dfg.Graph.kind)
      then missing := Some i
      else if c > 1 && !dup = None then dup := Some i)
    seen;
  match (!missing, !dup) with
  | Some i, _ ->
      Error
        (Printf.sprintf "node %s missing from the ALU assignment"
           (Dfg.Graph.node g i).Dfg.Graph.name)
  | _, Some i ->
      Error
        (Printf.sprintf "node %s assigned to several ALUs"
           (Dfg.Graph.node g i).Dfg.Graph.name)
  | None, None -> Ok ()

let bind_ports ?latency g ~start ~span ops =
  let ops =
    List.sort
      (fun i j ->
        let c = compare start.(i) start.(j) in
        if c <> 0 then c else compare i j)
      ops
  in
  let fits i =
    List.for_all (fun j ->
        Dfg.Graph.mutually_exclusive g i j
        || not
             (Lifetime.steps_overlap ~latency start.(i) (span i) start.(j)
                (span j)))
  in
  let rec insert i = function
    | [] -> [ [ i ] ]
    | p :: rest -> if fits i p then (i :: p) :: rest else p :: insert i rest
  in
  List.map List.rev (List.fold_left (fun ports i -> insert i ports) [] ops)

let elaborate ?(include_inputs = true) ?latency g ~start ~delay
    ~cs ~assignments =
  let* () = validate_assignments g assignments in
  let n = Dfg.Graph.num_nodes g in
  let ivs = Lifetime.intervals ~include_inputs g ~start ~delay ~cs in
  let regs = Left_edge.allocate ivs in
  let alu_of = Array.make n (-1) in
  List.iteri
    (fun a (_, ops) -> List.iter (fun i -> alu_of.(i) <- a) ops)
    assignments;
  (* Bank-port binding by [bind_ports]. Port instances get pseudo-unit ids
     continuing after the ALU ids — chained reads tag as [alu<id>] and
     reuse the wire machinery. *)
  let mem_nodes =
    List.filter (fun nd -> Dfg.Op.is_mem nd.Dfg.Graph.kind) (Dfg.Graph.nodes g)
  in
  let* mems =
    match
      List.find_opt (fun nd -> Dfg.Graph.node_bank g nd = None) mem_nodes
    with
    | Some nd ->
        Error
          (Printf.sprintf "memory access %s names no declared array"
             nd.Dfg.Graph.name)
    | None ->
        let banks =
          List.sort_uniq String.compare
            (List.filter_map (Dfg.Graph.node_bank g) mem_nodes)
        in
        let next = ref (List.length assignments) in
        Ok
          (List.concat_map
             (fun b ->
               let ops =
                 List.filter_map
                   (fun nd ->
                     if Dfg.Graph.node_bank g nd = Some b then
                       Some nd.Dfg.Graph.id
                     else None)
                   mem_nodes
               in
               List.mapi
                 (fun k port_ops ->
                   let id = !next in
                   incr next;
                   { m_id = id; m_bank = b; m_port = k; m_ops = port_ops })
                 (bind_ports ?latency g ~start ~span:delay ops))
             banks)
  in
  List.iter
    (fun m -> List.iter (fun i -> alu_of.(i) <- m.m_id) m.m_ops)
    mems;
  (* A value is read from a register when latched before the consumer's
     step, or chained straight from the producing ALU inside the step. *)
  let resolve consumer arg =
    match Dfg.Graph.find g arg with
    | None -> (
        (* primary input *)
        match Left_edge.register_of regs arg with
        | Some r -> Ok (From_reg r)
        | None -> Ok (From_input arg))
    | Some producer ->
        let p = producer.Dfg.Graph.id in
        let finish = start.(p) + delay p - 1 in
        if finish < start.(consumer) then
          match Left_edge.register_of regs arg with
          | Some r -> Ok (From_reg r)
          | None ->
              Error
                (Printf.sprintf "value %s crosses a boundary but has no register"
                   arg)
        else Ok (From_alu alu_of.(p))
  in
  let rec resolve_all acc = function
    | [] -> Ok (List.rev acc)
    | nd :: rest ->
        let rec operands srcs = function
          | [] -> Ok (List.rev srcs)
          | arg :: more -> (
              match resolve nd.Dfg.Graph.id arg with
              | Ok s -> operands (s :: srcs) more
              | Error _ as e -> e)
        in
        (* A memory access names its array first; the array is the bank
           interface, not a routed value. *)
        let direct, prefix =
          if Dfg.Op.is_mem nd.Dfg.Graph.kind then
            match nd.Dfg.Graph.args with
            | arr :: more -> (more, [ From_mem arr ])
            | [] -> ([], [])
          else (nd.Dfg.Graph.args, [])
        in
        (match operands [] direct with
        | Ok srcs -> resolve_all ((nd.Dfg.Graph.id, prefix @ srcs) :: acc) rest
        | Error _ as e -> e)
  in
  let* operand_sources = resolve_all [] (Dfg.Graph.nodes g) in
  let alus =
    List.mapi
      (fun a (kind, ops) ->
        let ops = List.sort (fun i j -> compare start.(i) start.(j)) ops in
        let rows =
          List.map
            (fun i ->
              let nd = Dfg.Graph.node g i in
              let srcs = List.assoc i operand_sources in
              match srcs with
              | [ x ] ->
                  { Mux_share.left = source_tag x; right = None;
                    commutative = false }
              | [ x; y ] ->
                  { Mux_share.left = source_tag x;
                    right = Some (source_tag y);
                    commutative = Dfg.Op.is_commutative nd.Dfg.Graph.kind }
              | _ -> assert false (* arities validated at graph build *))
            ops
        in
        { a_id = a; a_kind = kind; a_ops = ops; a_share = Mux_share.assign rows })
      assignments
  in
  Ok { graph = g; start; cs; alus; alu_of; regs; mems; operand_sources }

let self_loop_alus t =
  List.filter_map
    (fun a ->
      let members = a.a_ops in
      let has_neighbor i =
        List.exists
          (fun j ->
            j <> i
            && (List.mem j (Dfg.Graph.preds t.graph i)
               || List.mem j (Dfg.Graph.succs t.graph i)))
          members
      in
      if List.exists has_neighbor members then Some a.a_id else None)
    t.alus

let port_fanins t =
  List.concat_map
    (fun a ->
      [ List.length a.a_share.Mux_share.l1; List.length a.a_share.Mux_share.l2 ])
    t.alus

let mux_count t = List.length (List.filter (fun f -> f >= 2) (port_fanins t))

let mux_inputs t =
  List.fold_left
    (fun acc f -> if f >= 2 then acc + f else acc)
    0 (port_fanins t)

let pp ppf t =
  Format.fprintf ppf "@[<v>datapath: %d ALUs, %d registers, %d MUXes (%d inputs)@,"
    (List.length t.alus) t.regs.Left_edge.count (mux_count t) (mux_inputs t);
  List.iter
    (fun a ->
      Format.fprintf ppf "  %s <- {%s}  L1=[%s] L2=[%s]@,"
        a.a_kind.Celllib.Library.aname
        (String.concat ","
           (List.map
              (fun i -> (Dfg.Graph.node t.graph i).Dfg.Graph.name)
              a.a_ops))
        (String.concat ";" a.a_share.Mux_share.l1)
        (String.concat ";" a.a_share.Mux_share.l2))
    t.alus;
  List.iter
    (fun m ->
      Format.fprintf ppf "  mem %s.p%d <- {%s}@," m.m_bank m.m_port
        (String.concat ","
           (List.map
              (fun i -> (Dfg.Graph.node t.graph i).Dfg.Graph.name)
              m.m_ops)))
    t.mems;
  for r = 0 to t.regs.Left_edge.count - 1 do
    Format.fprintf ppf "  reg%d <- {%s}@," r
      (String.concat "," (Left_edge.values_of t.regs r))
  done;
  Format.fprintf ppf "@]"
