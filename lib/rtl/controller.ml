type micro = {
  m_step : int;
  m_latch_step : int;
  m_node : int;
  m_alu : int;
  m_sources : Datapath.source list;
  m_dest : int option;
  m_guards : (string * bool) list;
}

type t = {
  steps : int;
  micros : micro list;
  input_loads : (string * int) list;
}

(* Chaining depth: number of same-step producer hops feeding the node. *)
let rec chain_depth g start memo i =
  match Hashtbl.find_opt memo i with
  | Some d -> d
  | None ->
      let d =
        List.fold_left
          (fun acc p ->
            if start.(p) = start.(i) then
              max acc (1 + chain_depth g start memo p)
            else acc)
          0 (Dfg.Graph.preds g i)
      in
      Hashtbl.replace memo i d;
      d

let make (dp : Datapath.t) ~delay =
  let g = dp.Datapath.graph in
  let memo = Hashtbl.create 16 in
  let micros =
    List.map
      (fun nd ->
        let i = nd.Dfg.Graph.id in
        {
          m_step = dp.Datapath.start.(i);
          m_latch_step = dp.Datapath.start.(i) + delay i - 1;
          m_node = i;
          m_alu = dp.Datapath.alu_of.(i);
          m_sources = List.assoc i dp.Datapath.operand_sources;
          m_dest = Left_edge.register_of dp.Datapath.regs nd.Dfg.Graph.name;
          m_guards = nd.Dfg.Graph.guards;
        })
      (Dfg.Graph.nodes g)
  in
  let micros =
    List.sort
      (fun a b ->
        let c = compare a.m_step b.m_step in
        if c <> 0 then c
        else
          let c =
            compare
              (chain_depth g dp.Datapath.start memo a.m_node)
              (chain_depth g dp.Datapath.start memo b.m_node)
          in
          if c <> 0 then c else compare a.m_node b.m_node)
      micros
  in
  let input_loads =
    List.filter_map
      (fun v ->
        Option.map (fun r -> (v, r)) (Left_edge.register_of dp.Datapath.regs v))
      (Dfg.Graph.inputs g)
  in
  { steps = dp.Datapath.cs; micros; input_loads }

let generate dp ~delay = Ok (make dp ~delay)

let pp ppf t =
  Format.fprintf ppf "@[<v>controller: %d states@," t.steps;
  List.iter
    (fun (v, r) -> Format.fprintf ppf "  load reg%d <= %s@," r v)
    t.input_loads;
  List.iter
    (fun m ->
      Format.fprintf ppf "  s%d: alu%d node%d <- [%s]%s%s@," m.m_step m.m_alu
        m.m_node
        (String.concat ";" (List.map Datapath.source_tag m.m_sources))
        (match m.m_dest with
        | Some r -> Printf.sprintf " -> reg%d" r
        | None -> " -> (chained)")
        (match m.m_guards with
        | [] -> ""
        | gs ->
            " if "
            ^ String.concat ","
                (List.map (fun (c, a) -> (if a then "" else "!") ^ c) gs)))
    t.micros;
  Format.fprintf ppf "@]"
