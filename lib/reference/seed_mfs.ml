(* Frozen copy of the seed (pre-array-kernel) move-frame scheduler, kept as
   a behavioural oracle for the optimised [Core.Mfs] / [Core.Grid] pair.

   The occupancy grid here is the original placement-list representation
   (O(placements) probes) and the move frame is materialised eagerly before
   [Core.Liapunov.best] picks the minimum-energy position, exactly as in the
   seed.  Only the restart/widening statistics follow the current split
   semantics so [outcome] values compare field-for-field against the live
   scheduler.  Do not optimise this module — its value is that it does not
   change. *)

(* The seed list-backed occupancy grid. *)
module List_grid = struct
  type placement = { op : int; col : int; step : int; span : int }

  type t = {
    horizon : int;
    mutable ncols : int;
    mutable items : placement list; (* most recent first *)
  }

  let create ~steps ~cols = { horizon = steps; ncols = max 0 cols; items = [] }

  let place t ~op ~col ~step ~span =
    if col < 1 || col > t.ncols then
      invalid_arg
        (Printf.sprintf "Grid.place: column %d outside 1..%d" col t.ncols);
    if step < 1 || step + span - 1 > t.horizon then
      invalid_arg
        (Printf.sprintf "Grid.place: steps %d..%d outside 1..%d" step
           (step + span - 1) t.horizon);
    t.items <- { op; col; step; span } :: t.items

  let conflicts t ~latency ~col ~step ~span =
    List.filter_map
      (fun p ->
        if
          p.col = col
          && Core.Grid.steps_overlap ~latency p.step p.span step span
        then Some p.op
        else None)
      t.items

  let free t ~exclusive ~latency ~op ~span (pos : Core.Frames.pos) =
    let occ =
      conflicts t ~latency ~col:pos.Core.Frames.col ~step:pos.Core.Frames.step
        ~span
    in
    List.for_all (fun other -> exclusive op other) occ
end

exception Need_more_units of string
exception Unit_limit of string

let lookup assoc key = List.assoc_opt key assoc
let effective_bounds = Core.Timeframe.bounds
let min_cs = Core.Timeframe.min_cs
let step_admissible = Core.Timeframe.step_admissible

type state = {
  grids : (string, List_grid.t) Hashtbl.t;
  start : int array;
  col : int array;
  offset : float array;
}

let attempt cfg g bounds order ~objective ~max_j ~current ~trace =
  let n = Dfg.Graph.num_nodes g in
  let cs = bounds.Dfg.Bounds.cs in
  let st =
    {
      grids = Hashtbl.create 8;
      start = Array.make n 0;
      col = Array.make n 0;
      offset = Array.make n 0.0;
    }
  in
  List.iter
    (fun c ->
      Hashtbl.replace st.grids c
        (List_grid.create ~steps:cs ~cols:(Hashtbl.find max_j c)))
    (Dfg.Graph.classes g);
  let exclusive i j =
    cfg.Core.Config.share_mutex && Dfg.Graph.mutually_exclusive g i j
  in
  let latency = cfg.Core.Config.functional_latency in
  List.iter
    (fun i ->
      let nd = Dfg.Graph.node g i in
      let c = Dfg.Graph.node_class g nd in
      let grid = Hashtbl.find st.grids c in
      let sp = Core.Config.span cfg nd.Dfg.Graph.kind in
      let offsets_at = Hashtbl.create 4 in
      let forbidden s =
        match
          step_admissible cfg g ~start:st.start ~offset:st.offset i s
        with
        | Some off ->
            Hashtbl.replace offsets_at s off;
            false
        | None -> true
      in
      let pf =
        Core.Frames.primary ~step_lo:bounds.Dfg.Bounds.asap.(i)
          ~step_hi:bounds.Dfg.Bounds.alap.(i)
          ~max_cols:(Hashtbl.find max_j c)
      in
      let rf =
        Core.Frames.redundant ~current:(Hashtbl.find current c)
          ~max_cols:(Hashtbl.find max_j c)
          ~step_lo:bounds.Dfg.Bounds.asap.(i)
          ~step_hi:bounds.Dfg.Bounds.alap.(i)
      in
      let free = List_grid.free grid ~exclusive ~latency ~op:i ~span:sp in
      let candidates = Core.Frames.move_frame ~pf ~rf ~forbidden ~free in
      match Core.Liapunov.best objective candidates with
      | None -> raise (Need_more_units c)
      | Some pos ->
          let from_pos =
            List.fold_left
              (fun acc p ->
                if
                  Core.Liapunov.value objective p
                  > Core.Liapunov.value objective acc
                then p
                else acc)
              pos candidates
          in
          Core.Liapunov.Trace.record trace objective ~op:i ~from_pos
            ~to_pos:pos;
          List_grid.place grid ~op:i ~col:pos.Core.Frames.col
            ~step:pos.Core.Frames.step ~span:sp;
          st.start.(i) <- pos.Core.Frames.step;
          st.col.(i) <- pos.Core.Frames.col;
          st.offset.(i) <-
            (match Hashtbl.find_opt offsets_at pos.Core.Frames.step with
            | Some off -> off
            | None -> 0.0))
    order;
  st

let initial_counts cfg g bounds ~user_limits ~cs =
  let classes = Dfg.Graph.classes g in
  let counts = Dfg.Graph.count_by_class g in
  let conc_of start =
    Dfg.Bounds.concurrency ~delays:(Core.Config.delay cfg) g ~start ~cs
  in
  let asap_conc = conc_of bounds.Dfg.Bounds.asap in
  let alap_conc = conc_of bounds.Dfg.Bounds.alap in
  let cs_effective =
    match cfg.Core.Config.functional_latency with
    | Some l -> min l cs
    | None -> cs
  in
  let current = Hashtbl.create 8 in
  let max_j = Hashtbl.create 8 in
  let user_limited = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let n_c = Option.value ~default:0 (lookup counts c) in
      let init = max 1 ((n_c + cs_effective - 1) / cs_effective) in
      let upper =
        match lookup user_limits c with
        | Some u ->
            Hashtbl.replace user_limited c true;
            u
        | None ->
            Hashtbl.replace user_limited c false;
            max init
              (max
                 (Option.value ~default:1 (lookup asap_conc c))
                 (Option.value ~default:1 (lookup alap_conc c)))
      in
      Hashtbl.replace current c (min init upper);
      Hashtbl.replace max_j c (max 1 upper))
    classes;
  (current, max_j, user_limited)

let total_ops g = Dfg.Graph.num_nodes g

(* The seed computes the final configuration's Liapunov value the obvious
   way — a full fold over every placement — serving as the oracle for the
   kernel's incrementally maintained total. *)
let config_energy objective st g =
  Core.Liapunov.total objective
    (List.map
       (fun nd ->
         let i = nd.Dfg.Graph.id in
         { Core.Frames.col = st.col.(i); step = st.start.(i) })
       (Dfg.Graph.nodes g))

let run_time cfg g ~cs ~user_limits =
  match effective_bounds cfg g ~cs with
  | Error d -> Error (Diag.message d)
  | Ok bounds ->
      let order = Core.Priority.order cfg g bounds in
      let current, max_j, user_limited =
        initial_counts cfg g bounds ~user_limits ~cs
      in
      let trace = Core.Liapunov.Trace.create () in
      let restarts = ref 0 in
      let widenings = ref 0 in
      let budget = ref ((2 * total_ops g) + 8) in
      let rec loop () =
        let n_energy = Hashtbl.fold (fun _ v acc -> max v acc) max_j 1 in
        let objective = Core.Liapunov.Time_constrained { n = n_energy } in
        match attempt cfg g bounds order ~objective ~max_j ~current ~trace with
        | st ->
            let schedule =
              Core.Schedule.make ~col:st.col ~offset:st.offset ~config:cfg ~cs
                g st.start
            in
            Ok
              {
                Core.Mfs.schedule;
                objective;
                trace;
                restarts = !restarts;
                widenings = !widenings;
                energy = config_energy objective st g;
              }
        | exception Need_more_units c ->
            decr budget;
            if !budget <= 0 then
              Error "MFS: rescheduling budget exhausted (internal)"
            else begin
              incr restarts;
              let cur = Hashtbl.find current c in
              if cur < Hashtbl.find max_j c then
                Hashtbl.replace current c (cur + 1)
              else if Hashtbl.find user_limited c then raise (Unit_limit c)
              else begin
                incr widenings;
                Hashtbl.replace max_j c (Hashtbl.find max_j c + 1);
                Hashtbl.replace current c (cur + 1)
              end;
              loop ()
            end
      in
      (try loop () with
      | Unit_limit c ->
          Error
            (Printf.sprintf
               "MFS: cannot meet time budget %d with the given limit on %s \
                units"
               cs c))

let run_resource cfg g ~limits =
  let lo = min_cs cfg g in
  let hi =
    List.fold_left
      (fun acc nd -> acc + Core.Config.delay cfg nd.Dfg.Graph.kind)
      1 (Dfg.Graph.nodes g)
  in
  let restarts = ref 0 in
  let rec search cs =
    if cs > hi then
      Error "MFS: resource-constrained search exceeded the serial horizon"
    else
      match effective_bounds cfg g ~cs with
      | Error _ -> search (cs + 1)
      | Ok bounds -> (
          let order = Core.Priority.order cfg g bounds in
          let current = Hashtbl.create 8 in
          let max_j = Hashtbl.create 8 in
          List.iter
            (fun c ->
              let u = Option.value ~default:max_int (lookup limits c) in
              let u =
                if u = max_int then
                  Option.value ~default:1
                    (lookup (Dfg.Graph.count_by_class g) c)
                else u
              in
              Hashtbl.replace current c (max 1 u);
              Hashtbl.replace max_j c (max 1 u))
            (Dfg.Graph.classes g);
          let trace = Core.Liapunov.Trace.create () in
          let objective = Core.Liapunov.Resource_constrained { cs } in
          match
            attempt cfg g bounds order ~objective ~max_j ~current ~trace
          with
          | st ->
              let schedule =
                Core.Schedule.make ~col:st.col ~offset:st.offset ~config:cfg
                  ~cs g st.start
              in
              let makespan = Core.Schedule.makespan schedule in
              let schedule = { schedule with Core.Schedule.cs = makespan } in
              Ok
                {
                  Core.Mfs.schedule;
                  objective;
                  trace;
                  restarts = !restarts;
                  widenings = cs - lo;
                  energy = config_energy objective st g;
                }
          | exception Need_more_units _ ->
              incr restarts;
              search (cs + 1))
  in
  search lo

let run ?(config = Core.Config.default) ?(max_units = []) g spec =
  if Dfg.Graph.num_nodes g = 0 then Error "MFS: empty graph"
  else
    match spec with
    | Core.Mfs.Time { cs } -> run_time config g ~cs ~user_limits:max_units
    | Core.Mfs.Resource { limits } -> run_resource config g ~limits

let schedule ?config ?max_units g spec =
  Result.map
    (fun o -> o.Core.Mfs.schedule)
    (run ?config ?max_units g spec)
