type spec =
  | Time of { cs : int }
  | Resource of { limits : (string * int) list }

type outcome = {
  schedule : Schedule.t;
  objective : Liapunov.objective;
  trace : Liapunov.Trace.t;
  restarts : int;
  widenings : int;
  energy : int;
}

exception Need_more_units of string

let lookup assoc key = List.assoc_opt key assoc

let effective_bounds = Timeframe.bounds
let min_cs = Timeframe.min_cs

let step_admissible = Timeframe.step_admissible

type state = {
  grids : (string, Grid.t) Hashtbl.t;
  start : int array;
  col : int array;
  offset : float array;
  probe : (int, float option) Hashtbl.t;
      (* per-op step-admissibility memo, cleared between ops *)
  mutable energy : int; (* Liapunov total of the last completed attempt *)
}

(* The arena: allocated once per run and reset between local-rescheduling
   restarts, so a restart costs O(state) instead of re-allocating grids and
   per-op scratch tables. *)
let make_state n =
  {
    grids = Hashtbl.create 8;
    start = Array.make (max 1 n) 0;
    col = Array.make (max 1 n) 0;
    offset = Array.make (max 1 n) 0.0;
    probe = Hashtbl.create 64;
    energy = 0;
  }

(* Columns beyond [current c] are exactly the redundant frame: no position
   there ever survives the RF filter, so each class's grid only needs
   [current c] columns.  [prepare_state] grows (never shrinks) a reused grid
   and clears it; a horizon change (resource-mode outer search) forces a
   fresh grid. *)
let prepare_state st ~cs ~current g =
  List.iter
    (fun c ->
      let cols = Hashtbl.find current c in
      match Hashtbl.find_opt st.grids c with
      | Some grid when Grid.steps grid = cs ->
          Grid.ensure_cols grid cols;
          Grid.clear grid
      | _ -> Hashtbl.replace st.grids c (Grid.create ~steps:cs ~cols))
    (Dfg.Graph.classes g);
  Array.fill st.start 0 (Array.length st.start) 0;
  Array.fill st.col 0 (Array.length st.col) 0;
  Array.fill st.offset 0 (Array.length st.offset) 0.0;
  st.energy <- 0

(* [seed] pre-places operations at known positions (incremental
   rescheduling: the kept complement of the edit cone) before the ordered
   placement loop runs; seeded ops contribute to the running Liapunov total
   but record no trace entry — they did not move. *)
let attempt ?(seed = []) cfg g bounds order ~objective ~current ~trace ~st =
  let cs = bounds.Dfg.Bounds.cs in
  prepare_state st ~cs ~current g;
  let acc = Liapunov.Acc.create objective in
  List.iter
    (fun (i, (pos : Frames.pos), off) ->
      let nd = Dfg.Graph.node g i in
      let c = Dfg.Graph.node_class g nd in
      let grid = Hashtbl.find st.grids c in
      Grid.place grid ~op:i ~col:pos.Frames.col ~step:pos.Frames.step
        ~span:(Config.span cfg nd.Dfg.Graph.kind);
      Liapunov.Acc.add acc pos;
      st.start.(i) <- pos.Frames.step;
      st.col.(i) <- pos.Frames.col;
      st.offset.(i) <- off)
    seed;
  let exclusive = Config.exclusive cfg g in
  let latency = cfg.Config.functional_latency in
  List.iter
    (fun i ->
      let nd = Dfg.Graph.node g i in
      let c = Dfg.Graph.node_class g nd in
      let grid = Hashtbl.find st.grids c in
      let sp = Config.span cfg nd.Dfg.Graph.kind in
      (* Chaining probe, memoized per (op, step): the forward (best) and
         reverse (ALFAP corner) frame scans share admissibility results. *)
      Hashtbl.clear st.probe;
      let admissible s =
        match Hashtbl.find_opt st.probe s with
        | Some r -> r
        | None ->
            let r =
              step_admissible cfg g ~start:st.start ~offset:st.offset i s
            in
            Hashtbl.replace st.probe s r;
            r
      in
      let forbidden s = admissible s = None in
      (* PF clamped to the provisioned unit count: columns current+1..max_j
         are all of RF, which the move-frame filter removes before the
         occupancy test, so never enumerating them visits exactly the same
         candidate set. RF is then empty by construction. *)
      let cols = Hashtbl.find current c in
      let pf =
        Frames.primary ~step_lo:bounds.Dfg.Bounds.asap.(i)
          ~step_hi:bounds.Dfg.Bounds.alap.(i) ~max_cols:cols
      in
      let rf =
        Frames.redundant ~current:cols ~max_cols:cols
          ~step_lo:bounds.Dfg.Bounds.asap.(i)
          ~step_hi:bounds.Dfg.Bounds.alap.(i)
      in
      let free = Grid.free_at grid ~exclusive ~latency ~op:i ~span:sp in
      match Liapunov.best_find objective ~pf ~rf ~forbidden ~free with
      | None -> raise (Need_more_units c)
      | Some pos ->
          (* The ALFAP corner: the worst (max-energy) admissible position,
             from which the operation "moves" to the chosen one. *)
          let from_pos =
            match Liapunov.worst_find objective ~pf ~rf ~forbidden ~free with
            | Some p -> p
            | None -> pos
          in
          Liapunov.Trace.record trace objective ~op:i ~from_pos ~to_pos:pos;
          Grid.place grid ~op:i ~col:pos.Frames.col ~step:pos.Frames.step
            ~span:sp;
          Liapunov.Acc.add acc pos;
          st.start.(i) <- pos.Frames.step;
          st.col.(i) <- pos.Frames.col;
          st.offset.(i) <-
            (match admissible pos.Frames.step with
            | Some off -> off
            | None -> 0.0))
    order;
  st.energy <- Liapunov.Acc.total acc;
  st

let initial_counts cfg g bounds ~user_limits ~cs =
  let classes = Dfg.Graph.classes g in
  let counts = Dfg.Graph.count_by_class g in
  let conc_of start =
    Dfg.Bounds.concurrency ~delays:(Config.delay cfg) g ~start ~cs
  in
  let asap_conc = conc_of bounds.Dfg.Bounds.asap in
  let alap_conc = conc_of bounds.Dfg.Bounds.alap in
  let cs_effective =
    match cfg.Config.functional_latency with
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

(* How the local-rescheduling loop stops without a schedule. *)
type stop = Budget_spent | Unit_limit of string

(* The local-rescheduling loop (§3.2 step 4), time-constrained: place
   [order] after [seed]; when a move frame comes up empty, grow the class's
   unit count, widening its upper bound unless the user capped it, and
   restart. At most [budget] restarts. *)
let restart_loop ?seed cfg g bounds order ~current ~max_j ~user_limited
    ~budget =
  let cs = bounds.Dfg.Bounds.cs in
  let trace = Liapunov.Trace.create () in
  let st = make_state (total_ops g) in
  let restarts = ref 0 in
  let widenings = ref 0 in
  let budget = ref budget in
  let rec loop () =
    let n_energy = Hashtbl.fold (fun _ v acc -> max v acc) max_j 1 in
    let objective = Liapunov.Time_constrained { n = n_energy } in
    match attempt ?seed cfg g bounds order ~objective ~current ~trace ~st with
    | st ->
        let schedule =
          Schedule.make ~col:st.col ~offset:st.offset ~config:cfg ~cs g
            st.start
        in
        Ok
          {
            schedule;
            objective;
            trace;
            restarts = !restarts;
            widenings = !widenings;
            energy = st.energy;
          }
    | exception Need_more_units c ->
        decr budget;
        if !budget <= 0 then Error Budget_spent
        else begin
          incr restarts;
          let cur = Hashtbl.find current c in
          if cur < Hashtbl.find max_j c then begin
            Hashtbl.replace current c (cur + 1);
            loop ()
          end
          else if Hashtbl.find user_limited c then Error (Unit_limit c)
          else begin
            incr widenings;
            Hashtbl.replace max_j c (Hashtbl.find max_j c + 1);
            Hashtbl.replace current c (cur + 1);
            loop ()
          end
        end
  in
  loop ()

let run_time cfg g ~cs ~user_limits =
  match effective_bounds cfg g ~cs with
  | Error msg -> Error (Diag.infeasible ~code:"mfs.infeasible-budget" msg)
  | Ok bounds -> (
      let current, max_j, user_limited =
        initial_counts cfg g bounds ~user_limits ~cs
      in
      match
        restart_loop cfg g bounds (Priority.order cfg g bounds) ~current ~max_j
          ~user_limited ~budget:((2 * total_ops g) + 8)
      with
      | Ok _ as o -> o
      | Error Budget_spent ->
          Error
            (Diag.internal ~code:"mfs.budget-exhausted"
               "MFS: rescheduling budget exhausted (internal)")
      | Error (Unit_limit c) ->
          Error
            (Diag.infeasible ~code:"mfs.unit-limit"
               (Printf.sprintf
                  "MFS: cannot meet time budget %d with the given limit on \
                   %s units"
                  cs c)))

let run_resource cfg g ~limits =
  let lo = min_cs cfg g in
  let hi =
    List.fold_left
      (fun acc nd -> acc + Config.delay cfg nd.Dfg.Graph.kind)
      1 (Dfg.Graph.nodes g)
  in
  (* [restarts] counts placements abandoned on an empty move frame (true
     local reschedulings); the control-step widenings of the outer search
     are reported separately — the seed conflated the two. *)
  let restarts = ref 0 in
  let st = make_state (total_ops g) in
  let rec search cs =
    if cs > hi then
      Error
        (Diag.infeasible ~code:"mfs.horizon"
           "MFS: resource-constrained search exceeded the serial horizon")
    else
      match effective_bounds cfg g ~cs with
      | Error _ -> search (cs + 1)
      | Ok bounds -> (
          let order = Priority.order cfg g bounds in
          let current = Hashtbl.create 8 in
          List.iter
            (fun c ->
              let u = Option.value ~default:max_int (lookup limits c) in
              let u =
                if u = max_int then
                  (* Unconstrained class: allow one unit per operation. *)
                  Option.value ~default:1
                    (lookup (Dfg.Graph.count_by_class g) c)
                else u
              in
              Hashtbl.replace current c (max 1 u))
            (Dfg.Graph.classes g);
          let trace = Liapunov.Trace.create () in
          let objective = Liapunov.Resource_constrained { cs } in
          match attempt cfg g bounds order ~objective ~current ~trace ~st with
          | st ->
              let schedule =
                Schedule.make ~col:st.col ~offset:st.offset ~config:cfg ~cs g
                  st.start
              in
              let makespan = Schedule.makespan schedule in
              let schedule = { schedule with Schedule.cs = makespan } in
              Ok
                {
                  schedule;
                  objective;
                  trace;
                  restarts = !restarts;
                  widenings = cs - lo;
                  energy = st.energy;
                }
          | exception Need_more_units _ ->
              incr restarts;
              search (cs + 1))
  in
  search lo

let run ?(config = Config.default) ?(max_units = []) g spec =
  if Dfg.Graph.num_nodes g = 0 then
    Error (Diag.input ~code:"mfs.empty-graph" "MFS: empty graph")
  else
    (* Bank ports are hard per-class caps: they join the user limits (user
       entries first, so an explicit cap still wins) and are never widened —
       exceeding them is an infeasibility, not a unit-allocation choice. *)
    let mem = Config.mem_limits config g in
    match spec with
    | Time { cs } -> run_time config g ~cs ~user_limits:(max_units @ mem)
    | Resource { limits } -> run_resource config g ~limits:(limits @ mem)

let schedule ?config ?max_units g spec =
  Result.map (fun o -> o.schedule) (run ?config ?max_units g spec)

(* --- Incremental rescheduling ------------------------------------------- *)

type delta =
  | Op_added of string
  | Op_removed of string
  | Op_changed of string

type reschedule_stats = {
  replaced : int;
  kept : int;
  fell_back : bool;
}

(* The edit cone: the set of operations that must be re-placed after a graph
   delta.  Seeded from the declared deltas, then widened by structural
   comparison against the old graph (new name, changed kind/args/guards) and
   by a bounds sweep (a kept position that violates the new static
   ASAP/ALAP), and finally closed forward: placement only constrains
   descendants — an operation's frames depend on its predecessors' actual
   start steps — so everything downstream of a moved op must move too, and
   nothing upstream has to. *)
let edit_cone og ~old_of ~bounds ~old_of_start g deltas =
  let n = Dfg.Graph.num_nodes g in
  let in_cone = Array.make n false in
  let seed_name nm =
    match Dfg.Graph.find g nm with
    | Some nd -> in_cone.(nd.Dfg.Graph.id) <- true
    | None -> ()
  in
  List.iter
    (function
      | Op_added nm | Op_changed nm -> seed_name nm
      | Op_removed nm -> (
          (* The removed op has no id here; its old consumers do. *)
          match Dfg.Graph.find og nm with
          | None -> ()
          | Some ond ->
              List.iter
                (fun s -> seed_name (Dfg.Graph.node og s).Dfg.Graph.name)
                (Dfg.Graph.succs og ond.Dfg.Graph.id)))
    deltas;
  Array.iteri
    (fun i prev ->
      let nd = Dfg.Graph.node g i in
      match prev with
      | None -> in_cone.(i) <- true
      | Some (ond : Dfg.Graph.node) ->
          if
            ond.Dfg.Graph.kind <> nd.Dfg.Graph.kind
            || ond.Dfg.Graph.args <> nd.Dfg.Graph.args
            || ond.Dfg.Graph.guards <> nd.Dfg.Graph.guards
          then in_cone.(i) <- true)
    old_of;
  Array.iteri
    (fun i prev ->
      match prev with
      | Some (ond : Dfg.Graph.node) when not in_cone.(i) ->
          let s = old_of_start ond in
          if s < bounds.Dfg.Bounds.asap.(i) || s > bounds.Dfg.Bounds.alap.(i)
          then in_cone.(i) <- true
      | _ -> ())
    old_of;
  (* Forward closure. *)
  let pending = Queue.create () in
  Array.iteri (fun i c -> if c then Queue.add i pending) in_cone;
  while not (Queue.is_empty pending) do
    let i = Queue.pop pending in
    List.iter
      (fun s ->
        if not in_cone.(s) then begin
          in_cone.(s) <- true;
          Queue.add s pending
        end)
      (Dfg.Graph.succs g i)
  done;
  in_cone

let reschedule ?(config = Config.default) ?(max_units = []) ~old g deltas
    spec =
  let fallback () =
    Result.map
      (fun o ->
        (o, { replaced = total_ops g; kept = 0; fell_back = true }))
      (run ~config ~max_units g spec)
  in
  if Dfg.Graph.num_nodes g = 0 then
    Error (Diag.input ~code:"mfs.empty-graph" "MFS: empty graph")
  else
    match (spec, old.schedule.Schedule.col) with
    (* The resource-mode outer control-step search revisits the bounds per
       candidate horizon — there is no single frame context to patch — and
       an unbound schedule has no columns to keep.  Both fall back. *)
    | Resource _, _ | _, None -> fallback ()
    | Time { cs }, Some ocol -> (
        match effective_bounds config g ~cs with
        | Error msg ->
            Error (Diag.infeasible ~code:"mfs.infeasible-budget" msg)
        | Ok bounds -> (
            let og = old.schedule.Schedule.graph in
            let ostart = old.schedule.Schedule.start in
            let ooffset = old.schedule.Schedule.offset in
            let old_of =
              Array.of_list
                (List.map
                   (fun nd -> Dfg.Graph.find og nd.Dfg.Graph.name)
                   (Dfg.Graph.nodes g))
            in
            let in_cone =
              edit_cone og ~old_of ~bounds g deltas
                ~old_of_start:(fun (ond : Dfg.Graph.node) ->
                  ostart.(ond.Dfg.Graph.id))
            in
            let current, max_j, user_limited =
              initial_counts config g bounds
                ~user_limits:(max_units @ Config.mem_limits config g)
                ~cs
            in
            (* Provision every column a kept placement occupies; a kept
               column above a user-given cap means the old schedule is
               inconsistent with the limits — re-place everything. *)
            let exception Limit_conflict in
            match
              Array.iteri
                (fun i prev ->
                  match prev with
                  | Some (ond : Dfg.Graph.node) when not in_cone.(i) ->
                      let c = Dfg.Graph.node_class g (Dfg.Graph.node g i) in
                      let col = ocol.(ond.Dfg.Graph.id) in
                      if col > Hashtbl.find max_j c then begin
                        if Hashtbl.find user_limited c then
                          raise Limit_conflict;
                        Hashtbl.replace max_j c col
                      end;
                      if col > Hashtbl.find current c then
                        Hashtbl.replace current c col
                  | _ -> ())
                old_of
            with
            | exception Limit_conflict -> fallback ()
            | () -> (
                let seed = ref [] in
                Array.iteri
                  (fun i prev ->
                    match prev with
                    | Some (ond : Dfg.Graph.node) when not in_cone.(i) ->
                        let oid = ond.Dfg.Graph.id in
                        seed :=
                          ( i,
                            { Frames.col = ocol.(oid); step = ostart.(oid) },
                            ooffset.(oid) )
                          :: !seed
                    | _ -> ())
                  old_of;
                let seed = List.rev !seed in
                let kept = List.length seed in
                let order = Priority.order config g bounds in
                let cone_order = List.filter (fun i -> in_cone.(i)) order in
                let replaced = List.length cone_order in
                match
                  restart_loop ~seed config g bounds cone_order ~current
                    ~max_j ~user_limited ~budget:((2 * replaced) + 8)
                with
                | Error _ -> fallback ()
                | exception Invalid_argument _ ->
                    (* A kept position does not fit the fresh grid (e.g. a
                       horizon or span inconsistency the cone sweep could
                       not see) — the old schedule cannot be patched. *)
                    fallback ()
                | Ok o ->
                    (* Belt and braces: the cone construction is the
                       correctness argument, the checker is the proof. *)
                    if Schedule.check_diags o.schedule <> [] then fallback ()
                    else Ok (o, { replaced; kept; fell_back = false }))))
