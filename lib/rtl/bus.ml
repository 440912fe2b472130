type transfer = {
  t_node : int;
  t_operand : int;
  t_step : int;
  t_bus : int;
  t_source : Datapath.source;
}

type t = {
  buses : int;
  transfers : transfer list;
  per_step : int array;
}

let allocate (dp : Datapath.t) =
  let cs = dp.Datapath.cs in
  let per_step = Array.make (cs + 1) 0 in
  let transfers =
    List.concat_map
      (fun (node, sources) ->
        let step = dp.Datapath.start.(node) in
        List.mapi (fun operand src -> (node, operand, step, src)) sources)
      dp.Datapath.operand_sources
    |> List.filter_map (fun (node, operand, step, src) ->
           match src with
           | Datapath.From_alu _ -> None (* chained: a direct wire *)
           | Datapath.From_mem _ -> None (* bank interface: dedicated wiring *)
           | Datapath.From_reg _ | Datapath.From_input _ ->
               let bus = per_step.(step) in
               per_step.(step) <- bus + 1;
               Some { t_node = node; t_operand = operand; t_step = step;
                      t_bus = bus; t_source = src })
  in
  { buses = Array.fold_left max 0 per_step; transfers; per_step }

let cost ?(bus_area = 900.) ?(tap_area = 60.) t =
  let taps =
    List.sort_uniq compare
      (List.map (fun tr -> (Datapath.source_tag tr.t_source, tr.t_bus)) t.transfers)
  in
  (float_of_int t.buses *. bus_area)
  +. (float_of_int (List.length taps) *. tap_area)

let check_diags t =
  let errs = ref [] in
  let add ~code fmt =
    Printf.ksprintf (fun s -> errs := Diag.internal ~code s :: !errs) fmt
  in
  List.iteri
    (fun i tr ->
      if tr.t_bus < 0 || tr.t_bus >= max 1 t.buses then
        add ~code:"bus.range" "transfer %d uses bus %d outside 0..%d" i
          tr.t_bus (t.buses - 1);
      List.iteri
        (fun j tr' ->
          if
            j > i && tr.t_step = tr'.t_step && tr.t_bus = tr'.t_bus
          then
            add ~code:"bus.conflict" "transfers %d and %d share bus %d in step %d"
              i j tr.t_bus tr.t_step)
        t.transfers)
    t.transfers;
  List.rev !errs
