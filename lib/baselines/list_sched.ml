let priority cfg g =
  let n = Dfg.Graph.num_nodes g in
  let memo = Array.make n (-1) in
  let delay i = Core.Config.delay cfg (Dfg.Graph.node g i).Dfg.Graph.kind in
  List.iter
    (fun i ->
      let below =
        List.fold_left (fun acc s -> max acc memo.(s)) 0 (Dfg.Graph.succs g i)
      in
      memo.(i) <- delay i + below)
    (List.rev (Dfg.Graph.topological g));
  fun i -> memo.(i)

(* One resource-constrained pass; returns the start array. *)
let run_rc cfg g ~units =
  let n = Dfg.Graph.num_nodes g in
  let prio = priority cfg g in
  let delay i = Core.Config.delay cfg (Dfg.Graph.node g i).Dfg.Graph.kind in
  let span i = Core.Config.span cfg (Dfg.Graph.node g i).Dfg.Graph.kind in
  let klass i = Dfg.Graph.node_class g (Dfg.Graph.node g i) in
  let start = Array.make n 0 in
  let unplaced = ref (Dfg.Graph.num_nodes g) in
  (* busy.(c) tracks (op, until_step) pairs per class (span occupancy). *)
  let busy = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace busy c []) (Dfg.Graph.classes g);
  let step = ref 0 in
  while !unplaced > 0 do
    incr step;
    let s = !step in
    (* Free units whose occupation ended. *)
    List.iter
      (fun c ->
        Hashtbl.replace busy c
          (List.filter (fun (_, until) -> until >= s) (Hashtbl.find busy c)))
      (Dfg.Graph.classes g);
    let ready =
      List.filter
        (fun nd ->
          let i = nd.Dfg.Graph.id in
          start.(i) = 0
          && List.for_all
               (fun p -> start.(p) > 0 && start.(p) + delay p <= s)
               (Dfg.Graph.preds g i))
        (Dfg.Graph.nodes g)
      |> List.map (fun nd -> nd.Dfg.Graph.id)
      |> List.sort (fun i j ->
             let c = compare (prio j) (prio i) in
             if c <> 0 then c else compare i j)
    in
    List.iter
      (fun i ->
        let c = klass i in
        let in_use = Hashtbl.find busy c in
        let cap = Option.value ~default:1 (List.assoc_opt c units) in
        if List.length in_use < cap then begin
          start.(i) <- s;
          decr unplaced;
          Hashtbl.replace busy c ((i, s + span i - 1) :: in_use)
        end)
      ready
  done;
  start

let finish_schedule cfg g start =
  let cs =
    List.fold_left
      (fun acc nd ->
        max acc
          (start.(nd.Dfg.Graph.id)
          + Core.Config.delay cfg nd.Dfg.Graph.kind
          - 1))
      1 (Dfg.Graph.nodes g)
  in
  let col = Colbind.columns cfg g ~start in
  Core.Schedule.make ~col ~config:cfg ~cs g start

(* Every rejection is infeasible: callers fall back or cache, not count a
   defect. *)
let empty_graph () =
  Error (Diag.infeasible ~code:"list.empty-graph" "list scheduling: empty graph")

(* A bank's access class never gets more units than the bank has ports:
   the ports are a hard cap ({!Core.Config.mem_limits}), as in MFS. *)
let port_cap config g c =
  Option.value ~default:max_int
    (List.assoc_opt c (Core.Config.mem_limits config g))

(* [run_rc] would never place an op of a class without a unit. *)
let without_units units =
  Option.map
    (fun (c, u) ->
      Diag.makef Diag.Infeasible ~code:"list.units"
        "list scheduling: %d units of %s" u c)
    (List.find_opt (fun (_, u) -> u < 1) units)

let resource ?(config = Core.Config.default) g ~limits =
  if Dfg.Graph.num_nodes g = 0 then empty_graph ()
  else
    let units =
      List.map
        (fun c ->
          let u = Option.value ~default:1 (List.assoc_opt c limits) in
          (c, min u (port_cap config g c)))
        (Dfg.Graph.classes g)
    in
    match without_units (limits @ units) with
    | Some d -> Error d
    | None -> Ok (finish_schedule config g (run_rc config g ~units))

let time ?(config = Core.Config.default) g ~cs =
  if Dfg.Graph.num_nodes g = 0 then empty_graph ()
  else
    match Core.Timeframe.bounds config g ~cs with
    | Error _ as e -> e
    | Ok bounds -> (
        let classes = Dfg.Graph.classes g in
        let cap = port_cap config g in
        let units = Hashtbl.create 8 in
        List.iter
          (fun (c, n_c) ->
            Hashtbl.replace units c (min (cap c) (max 1 ((n_c + cs - 1) / cs))))
          (Dfg.Graph.count_by_class g);
        let limit_list () = List.map (fun c -> (c, Hashtbl.find units c)) classes in
        (* Deferment loop: raise the limit of the first class that misses
           a deadline and may still grow; each round adds one unit
           somewhere, so it ends. A late bank access whose ports are all
           in use is a budget the banks cannot serve. *)
        let rec refine budget =
          let start = run_rc config g ~units:(limit_list ()) in
          let late =
            List.filter_map
              (fun nd ->
                if start.(nd.Dfg.Graph.id) > bounds.Dfg.Bounds.alap.(nd.Dfg.Graph.id)
                then Some (Dfg.Graph.node_class g nd)
                else None)
              (Dfg.Graph.nodes g)
          in
          match (late, List.find_opt (fun c -> Hashtbl.find units c < cap c) late) with
          | [], _ -> Ok (finish_schedule config g start)
          | c :: _, None ->
              Error
                (Diag.makef Diag.Infeasible ~code:"list.ports"
                   "list scheduling: %s cannot serve its accesses in %d \
                    steps with %d port(s)"
                   c cs (cap c))
          | _, Some _ when budget <= 0 ->
              Error
                (Diag.infeasible ~code:"list.deferment"
                   "list scheduling: deferment budget exhausted")
          | _, Some c ->
              Hashtbl.replace units c (Hashtbl.find units c + 1);
              refine (budget - 1)
        in
        match without_units (limit_list ()) with
        | Some d -> Error d
        | None -> refine (Dfg.Graph.num_nodes g + 8))
