type outcome = {
  schedule : Core.Schedule.t;
  optimum : float;
  explored : int;
  proven : bool;
}

exception Budget_exhausted

(* Branch and bound over start-step assignments in topological order.

   The partial cost is the units already implied by the placed prefix:
   sum over classes of (weight * peak concurrency so far). Since adding
   operations can only raise peaks, the partial cost is a valid lower bound
   and dominated branches are cut. A second bound adds, per class, the
   floor ceil(remaining_c / cs) for classes not yet provisioned. *)
(* Running out of the caller's node budget is no answer, not a defect. *)
let node_budget_spent = Diag.infeasible ~code:"exact.node-budget"

let run ?(config = Core.Config.default) ?(unit_weight = fun _ -> 1.)
    ?(node_budget = 5_000_000) g ~cs =
  if Dfg.Graph.num_nodes g = 0 then
    Error (Diag.infeasible ~code:"exact.empty-graph" "exact: empty graph")
  else
    match Core.Timeframe.bounds config g ~cs with
    | Error _ as e -> e
    | Ok bounds ->
        let n = Dfg.Graph.num_nodes g in
        let klass i = Dfg.Graph.node_class g (Dfg.Graph.node g i) in
        let delay i =
          Core.Config.delay config (Dfg.Graph.node g i).Dfg.Graph.kind
        in
        let span i = Core.Config.span config (Dfg.Graph.node g i).Dfg.Graph.kind in
        let classes = Dfg.Graph.classes g in
        let class_index = Hashtbl.create 8 in
        List.iteri (fun idx c -> Hashtbl.replace class_index c idx) classes;
        let nclasses = List.length classes in
        (* usage.(c * (cs+2) + t): ops of class c active in step t. *)
        let usage = Array.make (nclasses * (cs + 2)) 0 in
        let peaks = Array.make nclasses 0 in
        let remaining = Array.make nclasses 0 in
        List.iter
          (fun nd ->
            let c = Hashtbl.find class_index (klass nd.Dfg.Graph.id) in
            remaining.(c) <- remaining.(c) + 1)
          (Dfg.Graph.nodes g);
        let weight_arr =
          Array.of_list (List.map unit_weight classes)
        in
        let order = Dfg.Graph.topological g in
        let start = Array.make n 0 in
        let best_cost = ref infinity in
        let best_start = ref None in
        let explored = ref 0 in
        let partial_cost () =
          let acc = ref 0. in
          Array.iteri
            (fun c p ->
              let floor_c =
                if remaining.(c) = 0 then 0
                else (remaining.(c) + cs - 1) / cs
              in
              acc := !acc +. (weight_arr.(c) *. float_of_int (max p floor_c)))
            peaks;
          !acc
        in
        let rec branch = function
          | [] ->
              let cost = partial_cost () in
              if cost < !best_cost then begin
                best_cost := cost;
                best_start := Some (Array.copy start)
              end
          | i :: rest ->
              incr explored;
              if !explored > node_budget then raise Budget_exhausted;
              let c = Hashtbl.find class_index (klass i) in
              let lo =
                List.fold_left
                  (fun acc p -> max acc (start.(p) + delay p))
                  bounds.Dfg.Bounds.asap.(i) (Dfg.Graph.preds g i)
              in
              remaining.(c) <- remaining.(c) - 1;
              for s = lo to bounds.Dfg.Bounds.alap.(i) do
                (* Place: bump usage over the span, track the peak. *)
                let saved_peak = peaks.(c) in
                for t = s to s + span i - 1 do
                  let cell = (c * (cs + 2)) + t in
                  usage.(cell) <- usage.(cell) + 1;
                  if usage.(cell) > peaks.(c) then peaks.(c) <- usage.(cell)
                done;
                start.(i) <- s;
                if partial_cost () < !best_cost then branch rest;
                for t = s to s + span i - 1 do
                  let cell = (c * (cs + 2)) + t in
                  usage.(cell) <- usage.(cell) - 1
                done;
                peaks.(c) <- saved_peak
              done;
              remaining.(c) <- remaining.(c) + 1
        in
        let proven =
          match branch order with
          | () -> true
          | exception Budget_exhausted -> false
        in
        (match !best_start with
        | None ->
            Error
              (if !explored > node_budget then
                 node_budget_spent
                   "exact: node budget exhausted before any solution"
               else
                 Diag.internal ~code:"exact.internal"
                   "exact: no feasible schedule (internal)")
        | Some s ->
            let col = Colbind.columns config g ~start:s in
            Ok
              {
                schedule = Core.Schedule.make ~col ~config ~cs g s;
                optimum = !best_cost;
                explored = !explored;
                proven;
              })

let min_units ?config g ~cs =
  match run ?config g ~cs with
  | Error _ as e -> e
  | Ok o when o.proven -> Ok (int_of_float (o.optimum +. 0.5))
  | Ok _ ->
      Error
        (node_budget_spent "exact: node budget exhausted before proving \
                            optimality")
