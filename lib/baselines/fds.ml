let frame_probability bounds ~fixed i =
  match fixed.(i) with
  | Some s -> fun t -> if t = s then 1.0 else 0.0
  | None ->
      let lo = bounds.Dfg.Bounds.asap.(i) and hi = bounds.Dfg.Bounds.alap.(i) in
      let w = 1.0 /. float_of_int (hi - lo + 1) in
      fun t -> if t >= lo && t <= hi then w else 0.0

let distribution_internal cfg g bounds ~fixed klass =
  let cs = bounds.Dfg.Bounds.cs in
  let dg = Array.make (cs + 2) 0.0 in
  List.iter
    (fun nd ->
      let i = nd.Dfg.Graph.id in
      if String.equal (Dfg.Graph.node_class g nd) klass then begin
        let p = frame_probability bounds ~fixed i in
        let d = Core.Config.span cfg nd.Dfg.Graph.kind in
        (* A d-cycle operation starting at t loads steps t .. t+d-1. *)
        for t = 1 to cs do
          let pt = p t in
          if pt > 0.0 then
            for k = 0 to d - 1 do
              if t + k <= cs then dg.(t + k) <- dg.(t + k) +. pt
            done
        done
      end)
    (Dfg.Graph.nodes g);
  dg

let distribution cfg g bounds klass =
  let fixed = Array.make (Dfg.Graph.num_nodes g) None in
  Array.sub (distribution_internal cfg g bounds ~fixed klass) 0
    (bounds.Dfg.Bounds.cs + 1)

(* Recompute frames honouring fixed assignments, by temporarily treating a
   fixed op as having asap = alap = its step. *)
let refreshed_bounds cfg g ~cs ~fixed =
  let delay i = Core.Config.delay cfg (Dfg.Graph.node g i).Dfg.Graph.kind in
  let n = Dfg.Graph.num_nodes g in
  let asap = Array.make n 1 and alap = Array.make n cs in
  let ok = ref true in
  List.iter
    (fun i ->
      let lo =
        List.fold_left
          (fun acc p -> max acc (asap.(p) + delay p))
          1 (Dfg.Graph.preds g i)
      in
      asap.(i) <- (match fixed.(i) with Some s -> s | None -> lo);
      if asap.(i) < lo then ok := false)
    (Dfg.Graph.topological g);
  List.iter
    (fun i ->
      let hi =
        match Dfg.Graph.succs g i with
        | [] -> cs - delay i + 1
        | ss ->
            List.fold_left (fun acc s -> min acc (alap.(s) - delay i)) max_int ss
      in
      alap.(i) <- (match fixed.(i) with Some s -> s | None -> hi);
      if alap.(i) > hi || alap.(i) < asap.(i) then ok := false)
    (List.rev (Dfg.Graph.topological g));
  if !ok then Some { Dfg.Bounds.asap; alap; cs } else None

let self_force cfg g bounds ~fixed i s =
  let klass = Dfg.Graph.node_class g (Dfg.Graph.node g i) in
  let dg = distribution_internal cfg g bounds ~fixed klass in
  let p = frame_probability bounds ~fixed i in
  let d = Core.Config.span cfg (Dfg.Graph.node g i).Dfg.Graph.kind in
  let cs = bounds.Dfg.Bounds.cs in
  let force = ref 0.0 in
  for t = 1 to cs do
    let delta =
      (if t >= s && t <= s + d - 1 then 1.0 else 0.0)
      -. (let rec load k acc =
            if k >= d then acc
            else load (k + 1) (acc +. if t - k >= 1 then p (t - k) else 0.0)
          in
          load 0 0.0)
    in
    if delta <> 0.0 then force := !force +. (dg.(t) *. delta)
  done;
  !force

let run ?(config = Core.Config.default) g ~cs =
  if Dfg.Graph.num_nodes g = 0 then
    Error (Diag.infeasible ~code:"fds.empty-graph" "FDS: empty graph")
  else
    match Core.Timeframe.bounds config g ~cs with
    | Error _ as e -> e
    | Ok bounds0 ->
        let n = Dfg.Graph.num_nodes g in
        let fixed = Array.make n None in
        let bounds = ref bounds0 in
        let remaining = ref n in
        let failed = ref None in
        while !remaining > 0 && !failed = None do
          (* Lowest total force over every unscheduled op and frame step. *)
          let best = ref None in
          for i = 0 to n - 1 do
            if fixed.(i) = None then
              for s = !bounds.Dfg.Bounds.asap.(i)
                  to !bounds.Dfg.Bounds.alap.(i) do
                (* Self force against the current distribution graphs, then a
                   tentative fix to score the frame pressure induced on
                   direct neighbours. *)
                let f = self_force config g !bounds ~fixed i s in
                fixed.(i) <- Some s;
                (match refreshed_bounds config g ~cs ~fixed with
                | None -> ()
                | Some b' ->
                    let neighbor_force =
                      List.fold_left
                        (fun acc j ->
                          let shrink =
                            float_of_int
                              ((!bounds).Dfg.Bounds.alap.(j)
                              - (!bounds).Dfg.Bounds.asap.(j)
                              - (b'.Dfg.Bounds.alap.(j) - b'.Dfg.Bounds.asap.(j)))
                          in
                          acc +. (0.1 *. shrink))
                        0.0
                        (Dfg.Graph.preds g i @ Dfg.Graph.succs g i)
                    in
                    let total = f +. neighbor_force in
                    match !best with
                    | Some (bf, _, _) when bf <= total -> ()
                    | _ -> best := Some (total, i, s));
                fixed.(i) <- None
              done
          done;
          match !best with
          | None -> failed := Some "FDS: no feasible assignment found"
          | Some (_, i, s) -> (
              fixed.(i) <- Some s;
              decr remaining;
              match refreshed_bounds config g ~cs ~fixed with
              | Some b -> bounds := b
              | None -> failed := Some "FDS: frames collapsed (internal)")
        done;
        (match !failed with
        | Some e -> Error (Diag.internal ~code:"fds.internal" e)
        | None ->
            let start = Array.map (fun f -> Option.get f) fixed in
            let col = Colbind.columns config g ~start in
            Ok (Core.Schedule.make ~col ~config ~cs g start))
