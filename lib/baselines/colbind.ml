let columns cfg g ~start =
  let n = Dfg.Graph.num_nodes g in
  let col = Array.make n 0 in
  let steps_overlap =
    Core.Grid.steps_overlap ~latency:cfg.Core.Config.functional_latency
  in
  let span i = Core.Config.span cfg (Dfg.Graph.node g i).Dfg.Graph.kind in
  let clash i j =
    Rtl.Lifetime.clash ~steps_overlap
      ~exclusive:(Core.Config.exclusive cfg g i j)
      start.(i) (span i) start.(j) (span j)
  in
  List.iter
    (fun c ->
      let members =
        List.filter
          (fun nd -> String.equal (Dfg.Graph.node_class g nd) c)
          (Dfg.Graph.nodes g)
        |> List.map (fun nd -> nd.Dfg.Graph.id)
        |> List.sort (fun i j ->
               let cmp = compare start.(i) start.(j) in
               if cmp <> 0 then cmp else compare i j)
      in
      (* columns.(k) = ops already packed on column k+1 *)
      let packed = ref [] in
      List.iter
        (fun i ->
          let rec place k = function
            | [] ->
                packed := !packed @ [ [ i ] ];
                col.(i) <- k + 1
            | occupants :: rest ->
                if List.for_all (fun j -> not (clash i j)) occupants then begin
                  packed :=
                    List.mapi
                      (fun k' o -> if k' = k then i :: o else o)
                      !packed;
                  col.(i) <- k + 1
                end
                else place (k + 1) rest
          in
          place 0 !packed)
        members)
    (Dfg.Graph.classes g);
  col
