type style = Unrestricted | No_self_loop

type weights = {
  w_time : float;
  w_alu : float;
  w_mux : float;
  w_reg : float;
}

let equal_weights = { w_time = 1.; w_alu = 1.; w_mux = 1.; w_reg = 1. }

type iteration = {
  it_node : int;
  it_step : int;
  it_alu : int;
  it_fresh : bool;
  it_widened : bool;
  it_energy : float;
  it_worst : float;
}

type outcome = {
  schedule : Schedule.t;
  datapath : Rtl.Datapath.t;
  cost : Rtl.Cost.breakdown;
  iterations : iteration list;
  style : style;
}

type alu_state = {
  ai_id : int;
  mutable ai_kind : Celllib.Library.alu_kind;
  mutable ai_ops : int list;
}

type target =
  | Existing of alu_state
  | Widen of alu_state * Celllib.Library.alu_kind
  | Fresh of Celllib.Library.alu_kind

(* The MFSA redundant frame: providing more units of some class than
   currently provisioned requires a local rescheduling (paper §3.2 step 4,
   reused by §4.2). *)
exception Grow of string

(* Cheapest library kind covering [need]. *)
let covering_kind lib need =
  List.filter
    (fun a -> Celllib.Op_set.subset need a.Celllib.Library.ops)
    lib.Celllib.Library.alus
  |> List.sort (fun a b -> compare a.Celllib.Library.area b.Celllib.Library.area)
  |> function
  | [] -> None
  | a :: _ -> Some a

exception Infeasible_at_cs

let run_at ?(config = Config.default) ?(style = Unrestricted)
    ?(weights = equal_weights) ?unit_caps ~library ~cs g =
  if Dfg.Graph.num_nodes g = 0 then
    Error (Diag.input ~code:"mfsa.empty-graph" "MFSA: empty graph")
  else
    match Timeframe.bounds config g ~cs with
    | Error d -> Error { d with Diag.code = "mfsa.infeasible-budget" }
    | Ok bounds -> (
        let n = Dfg.Graph.num_nodes g in
        let kind_of i = (Dfg.Graph.node g i).Dfg.Graph.kind in
        let node_delay i = Config.delay config (kind_of i) in
        let missing =
          List.find_opt
            (fun nd ->
              (* Memory accesses run on bank ports, not library ALUs. *)
              (not (Dfg.Op.is_mem nd.Dfg.Graph.kind))
              && covering_kind library
                   (Celllib.Op_set.singleton nd.Dfg.Graph.kind)
                 = None)
            (Dfg.Graph.nodes g)
        in
        match missing with
        | Some nd ->
            Error
              (Diag.makef Diag.Input ~code:"mfsa.missing-kind"
                 "MFSA: no ALU kind in the library executes %s (%s)"
                 nd.Dfg.Graph.name
                 (Dfg.Op.to_string nd.Dfg.Graph.kind))
        | None ->
            let order = Priority.order config g bounds in
            let start = Array.make n 0 in
            let offset = Array.make n 0.0 in
            let alu_of = Array.make n (-1) in
            let placed = Array.make n false in
            let alus = ref [] (* newest first *) in
            let next_id = ref 0 in
            let latency = config.Config.functional_latency in
            (* Redundant-frame unit budget per single-function class,
               initialised to ceil(N_c / cs) as in MFS and grown by local
               rescheduling when a move frame comes up empty. *)
            let cs_eff = match latency with Some l -> min l cs | None -> cs in
            let mem_caps = Config.mem_limits config g in
            let current = Hashtbl.create 8 in
            List.iter
              (fun (c, n_c) ->
                let budget =
                  match List.assoc_opt c mem_caps with
                  | Some ports ->
                      (* Bank ports are a hard physical capacity: never
                         grown by rescheduling, and a tighter explicit cap
                         only narrows it. *)
                      let explicit =
                        Option.bind unit_caps (List.assoc_opt c)
                      in
                      max 1 (min ports (Option.value ~default:ports explicit))
                  | None -> (
                      match unit_caps with
                      | None -> max 1 ((n_c + cs_eff - 1) / cs_eff)
                      | Some caps ->
                          (* Resource-constrained: the caps are hard; a class
                             without a cap may use one unit per operation. *)
                          max 1
                            (Option.value ~default:n_c (List.assoc_opt c caps))
                      )
                in
                Hashtbl.replace current c budget)
              (Dfg.Graph.count_by_class g);
            let capable_count ki =
              List.length
                (List.filter
                   (fun a -> Celllib.Op_set.mem ki a.ai_kind.Celllib.Library.ops)
                   !alus)
            in
            let may_provision ki =
              capable_count ki < Hashtbl.find current (Dfg.Op.fu_class ki)
            in
            (* Classes whose existing capacity must not be diverted: when a
               class runs out of positions, the first repair is to stop
               widening its units towards other operations; only if that is
               not enough does the unit count grow. *)
            let no_widen = Hashtbl.create 4 in
            let widen_allowed a =
              not
                (Celllib.Op_set.exists
                   (fun k -> Hashtbl.mem no_widen (Dfg.Op.fu_class k))
                   a.ai_kind.Celllib.Library.ops)
            in
            let exclusive = Config.exclusive config g in
            (* Span an op occupies on an instance of the given kind. *)
            let pipelined kind = kind.Celllib.Library.stages > 1 in
            let span_on kind i = if pipelined kind then 1 else node_delay i in
            (* One shared occupancy grid over every ALU instance (column =
               instance id + 1), so a candidate probe costs O(span) instead
               of a walk over the instance's operation list. *)
            let grid = Grid.create ~steps:cs ~cols:0 in
            let occupancy_ok a kind i s =
              if pipelined kind = pipelined a.ai_kind then
                Grid.free grid ~exclusive ~latency ~op:i
                  ~span:(span_on kind i)
                  { Frames.col = a.ai_id + 1; step = s }
              else
                (* Widening to a kind of different pipelined-ness changes the
                   occupants' spans too, so the grid cells don't apply; fall
                   back to the pairwise sharing rule. *)
                List.for_all
                  (fun j ->
                    not
                      (Rtl.Lifetime.clash
                         ~steps_overlap:(Grid.steps_overlap ~latency)
                         ~exclusive:(exclusive i j) s (span_on kind i)
                         start.(j) (span_on kind j)))
                  a.ai_ops
            in
            let style_ok a i =
              match style with
              | Unrestricted -> true
              | No_self_loop ->
                  let preds = Dfg.Graph.preds g i
                  and succs = Dfg.Graph.succs g i in
                  List.for_all
                    (fun j -> not (List.mem j preds || List.mem j succs))
                    a.ai_ops
            in
            (* Interconnect-aware source tag of operand [arg] for a consumer
               starting at step [s] (§5.7): chained operands arrive on the
               producing ALU's output line, latched values on a per-value
               line (register sharing refines this at elaboration). *)
            let operand_tag ~s arg =
              match Dfg.Graph.find g arg with
              | None -> "in:" ^ arg
              | Some p ->
                  let pid = p.Dfg.Graph.id in
                  if
                    placed.(pid)
                    && start.(pid) + node_delay pid - 1 >= s
                  then Printf.sprintf "alu%d" alu_of.(pid)
                  else "val:" ^ arg
            in
            let mux_row i s =
              let nd = Dfg.Graph.node g i in
              match List.map (operand_tag ~s) nd.Dfg.Graph.args with
              | [ x ] ->
                  { Rtl.Mux_share.left = x; right = None; commutative = false }
              | [ x; y ] ->
                  {
                    Rtl.Mux_share.left = x;
                    right = Some y;
                    commutative = Dfg.Op.is_commutative nd.Dfg.Graph.kind;
                  }
              | _ -> assert false
            in
            (* Candidate evaluation runs this inside a triple loop; a small
               exhaustive limit keeps it cheap while the final elaboration
               still optimises exactly. *)
            let mux_cost_of_rows rows =
              Rtl.Mux_share.cost ~mux_cost:library.Celllib.Library.mux_cost
                (Rtl.Mux_share.assign ~exhaustive_limit:6 rows)
            in
            let alu_rows a =
              let ops =
                List.sort (fun i j -> compare start.(i) start.(j)) a.ai_ops
              in
              List.map (fun j -> mux_row j start.(j)) ops
            in
            (* Register count of the partially constructed design, optionally
               pretending candidate [cand = (i, s)] were placed (§5.8): the
               lifetimes of the inputs and the placed ops, without holding
               outputs to the horizon. An unplaced consumer starts at 0, so
               it never extends a lifetime. *)
            let partial_reg_count cand =
              (* The candidate is unplaced: its start is 0 outside this
                 call. *)
              (match cand with Some (i, s) -> start.(i) <- s | None -> ());
              let ivs =
                Rtl.Lifetime.intervals ~hold_outputs:false g ~start
                  ~delay:node_delay ~cs
              in
              (match cand with Some (i, _) -> start.(i) <- 0 | None -> ());
              let counted iv =
                match Dfg.Graph.find g iv.Rtl.Lifetime.value with
                | None -> true
                | Some nd ->
                    let j = nd.Dfg.Graph.id in
                    placed.(j)
                    || (match cand with Some (i, _) -> i = j | None -> false)
              in
              Rtl.Lifetime.max_overlap (List.filter counted ivs)
            in
            let max_marginal = Celllib.Library.max_mux_marginal library in
            (* Time-constrained: C makes an earlier step always win (§4.1).
               Resource-constrained: the cost terms dominate instead and the
               time term only breaks ties towards earlier steps — the
               analogue of switching from V = x + n*y to V = cs*x + y. *)
            let c_const =
              match unit_caps with
              | Some _ -> 1.
              | None ->
                  (weights.w_alu *. Celllib.Library.max_alu_area library)
                  +. (weights.w_mux *. 2. *. max_marginal)
                  +. (weights.w_reg *. 2. *. library.Celllib.Library.reg_cost)
                  +. 1.
            in
            let iterations = ref [] in
            (* Memory accesses are placed on bank ports rather than ALUs:
               the candidate set is admissible steps x lowest free port, and
               a port-pressure term steers accesses away from steps whose
               lower ports are already busy — the memory analogue of the
               ALU-area term. *)
            let mem_grids : (string, Grid.t) Hashtbl.t = Hashtbl.create 4 in
            let place_mem i c =
              let bank = Dfg.Graph.bank_of_class c in
              let ports = Hashtbl.find current c in
              let mgrid =
                match Hashtbl.find_opt mem_grids bank with
                | Some gr -> gr
                | None ->
                    let gr = Grid.create ~steps:cs ~cols:ports in
                    Hashtbl.replace mem_grids bank gr;
                    gr
              in
              let span = node_delay i in
              let regs_before = partial_reg_count None in
              let free_port s =
                let rec find p =
                  if p > ports then None
                  else if
                    Grid.free_at mgrid ~exclusive ~latency ~op:i ~span ~col:p
                      ~step:s
                  then Some p
                  else find (p + 1)
                in
                find 1
              in
              let candidates =
                let lo = bounds.Dfg.Bounds.asap.(i)
                and hi = bounds.Dfg.Bounds.alap.(i) in
                List.init (hi - lo + 1) (fun k -> lo + k)
                |> List.filter_map (fun s ->
                       match
                         Timeframe.step_admissible config g ~start ~offset i s
                       with
                       | None -> None
                       | Some off ->
                           Option.map (fun p -> (s, off, p)) (free_port s))
                |> List.map (fun (s, off, p) ->
                       let f_time =
                         weights.w_time *. c_const *. float_of_int s
                       in
                       let f_reg =
                         weights.w_reg
                         *. float_of_int
                              (partial_reg_count (Some (i, s)) - regs_before)
                         *. library.Celllib.Library.reg_cost
                       in
                       let f_port =
                         weights.w_alu
                         *. float_of_int (p - 1)
                         /. float_of_int ports
                       in
                       (f_time +. f_reg +. f_port, s, off, p))
              in
              match List.sort compare candidates with
              | [] -> raise (Grow c)
              | ((energy, s, off, p) :: _) as all ->
                  let worst =
                    List.fold_left
                      (fun acc (e, _, _, _) -> Float.max acc e)
                      energy all
                  in
                  Grid.place mgrid ~op:i ~col:p ~step:s ~span;
                  start.(i) <- s;
                  offset.(i) <- off;
                  placed.(i) <- true;
                  iterations :=
                    {
                      it_node = i;
                      it_step = s;
                      it_alu = -1;
                      it_fresh = false;
                      it_widened = false;
                      it_energy = energy;
                      it_worst = worst;
                    }
                    :: !iterations
            in
            let place_all () =
              List.iter
                (fun i ->
                  let ki = kind_of i in
                  if Dfg.Op.is_mem ki then
                    place_mem i (Dfg.Graph.node_class g (Dfg.Graph.node g i))
                  else begin
                  let regs_before = partial_reg_count None in
                  (* Per-iteration cache: the "before" mux cost of an ALU
                     does not depend on the candidate step. *)
                  let before_cache = Hashtbl.create 8 in
                  let before_cost a =
                    match Hashtbl.find_opt before_cache a.ai_id with
                    | Some v -> v
                    | None ->
                        let v = mux_cost_of_rows (alu_rows a) in
                        Hashtbl.replace before_cache a.ai_id v;
                        v
                  in
                  let steps =
                    let lo = bounds.Dfg.Bounds.asap.(i)
                    and hi = bounds.Dfg.Bounds.alap.(i) in
                    List.init (hi - lo + 1) (fun k -> lo + k)
                    |> List.filter_map (fun s ->
                           Option.map
                             (fun off -> (s, off))
                             (Timeframe.step_admissible config g ~start
                                ~offset i s))
                  in
                  let candidates = ref [] in
                  List.iter
                    (fun (s, off) ->
                      let f_time = weights.w_time *. c_const *. float_of_int s in
                      let reg_delta =
                        float_of_int (partial_reg_count (Some (i, s)) - regs_before)
                      in
                      let f_reg =
                        weights.w_reg *. reg_delta
                        *. library.Celllib.Library.reg_cost
                      in
                      let consider target =
                        let kind, f_alu, a_opt =
                          match target with
                          | Existing a -> (a.ai_kind, 0., Some a)
                          | Widen (a, k) ->
                              ( k,
                                Float.max 0.
                                  (k.Celllib.Library.area
                                  -. a.ai_kind.Celllib.Library.area),
                                Some a )
                          | Fresh k -> (k, k.Celllib.Library.area, None)
                        in
                        let ok =
                          match a_opt with
                          | Some a ->
                              occupancy_ok a kind i s && style_ok a i
                          | None -> true
                        in
                        if ok then begin
                          let f_mux =
                            match a_opt with
                            | Some a ->
                                weights.w_mux
                                *. (mux_cost_of_rows
                                      (alu_rows a @ [ mux_row i s ])
                                   -. before_cost a)
                            | None ->
                                weights.w_mux
                                *. mux_cost_of_rows [ mux_row i s ]
                          in
                          let energy =
                            f_time +. (weights.w_alu *. f_alu) +. f_mux
                            +. f_reg
                          in
                          candidates :=
                            (energy, s, off, target) :: !candidates
                        end
                      in
                      List.iter
                        (fun a ->
                          if Celllib.Op_set.mem ki a.ai_kind.Celllib.Library.ops
                          then consider (Existing a)
                          else if may_provision ki && widen_allowed a then
                            match
                              covering_kind library
                                (Celllib.Op_set.add ki
                                   a.ai_kind.Celllib.Library.ops)
                            with
                            | Some k -> consider (Widen (a, k))
                            | None -> ())
                        (List.rev !alus);
                      if may_provision ki then
                        match
                          covering_kind library (Celllib.Op_set.singleton ki)
                        with
                        | Some k -> consider (Fresh k)
                        | None -> ())
                    steps;
                  let rank (e, s, _, target) =
                    let t =
                      match target with
                      | Existing a -> (0, a.ai_id)
                      | Widen (a, _) -> (1, a.ai_id)
                      | Fresh _ -> (2, max_int)
                    in
                    (e, s, t)
                  in
                  match
                    List.sort (fun x y -> compare (rank x) (rank y)) !candidates
                  with
                  | [] -> raise (Grow (Dfg.Op.fu_class ki))
                  | ((energy, s, off, target) :: _) as all ->
                      let worst =
                        List.fold_left
                          (fun acc (e, _, _, _) -> Float.max acc e)
                          energy all
                      in
                      let a, fresh, widened =
                        match target with
                        | Existing a -> (a, false, false)
                        | Widen (a, k) ->
                            if pipelined k <> pipelined a.ai_kind then
                              (* The new kind changes the occupants' spans:
                                 re-place them instead of rebuilding the
                                 whole grid. *)
                              List.iter
                                (fun j ->
                                  Grid.unplace grid ~op:j;
                                  Grid.place grid ~op:j ~col:(a.ai_id + 1)
                                    ~step:start.(j) ~span:(span_on k j))
                                a.ai_ops;
                            a.ai_kind <- k;
                            (a, false, true)
                        | Fresh k ->
                            let a =
                              { ai_id = !next_id; ai_kind = k; ai_ops = [] }
                            in
                            incr next_id;
                            alus := a :: !alus;
                            Grid.ensure_cols grid !next_id;
                            (a, true, false)
                      in
                      a.ai_ops <- i :: a.ai_ops;
                      Grid.place grid ~op:i ~col:(a.ai_id + 1) ~step:s
                        ~span:(span_on a.ai_kind i);
                      start.(i) <- s;
                      offset.(i) <- off;
                      alu_of.(i) <- a.ai_id;
                      placed.(i) <- true;
                      iterations :=
                        {
                          it_node = i;
                          it_step = s;
                          it_alu = a.ai_id;
                          it_fresh = fresh;
                          it_widened = widened;
                          it_energy = energy;
                          it_worst = worst;
                        }
                        :: !iterations
                  end)
                order
            in
            let reset_state () =
              Array.fill start 0 n 0;
              Array.fill offset 0 n 0.0;
              Array.fill alu_of 0 n (-1);
              Array.fill placed 0 n false;
              alus := [];
              next_id := 0;
              iterations := [];
              (* Keep the grid's allocation (and grown columns) across
                 local-rescheduling restarts. *)
              Grid.clear grid;
              Hashtbl.iter (fun _ gr -> Grid.clear gr) mem_grids
            in
            let budget = ref ((2 * n) + 8) in
            let rec attempt () =
              reset_state ();
              match place_all () with
              | () -> (
                  let assignments =
                    List.rev_map
                      (fun a -> (a.ai_kind, List.rev a.ai_ops))
                      !alus
                  in
                  match
                    Rtl.Datapath.elaborate ?latency g ~start ~delay:node_delay
                      ~cs ~assignments
                  with
                  | Error d -> Error d
                  | Ok datapath ->
                      let schedule = Schedule.make ~offset ~config ~cs g start in
                      let cost = Rtl.Cost.of_datapath library datapath in
                      Ok
                        {
                          schedule;
                          datapath;
                          cost;
                          iterations = List.rev !iterations;
                          style;
                        })
              | exception Grow c when Dfg.Graph.is_mem_class c ->
                  (* A bank's port count is physical: there is no unit to
                     add and the placement is deterministic, so retrying
                     cannot help. Under hard caps the outer search widens
                     the time budget instead. *)
                  if unit_caps <> None then raise Infeasible_at_cs
                  else
                    Error
                      (Diag.infeasible ~code:"mfsa.port-limit"
                         (Printf.sprintf
                            "MFSA: bank %s cannot serve its accesses in %d \
                             steps with %d port(s)"
                            (Dfg.Graph.bank_of_class c) cs
                            (Hashtbl.find current c)))
              | exception Grow c ->
                  decr budget;
                  if !budget <= 0 then
                    if style = No_self_loop then
                      (* Style 2 can genuinely deadlock: every admissible
                         position of some operation would create a self
                         loop. Blowing the restart budget under the extra
                         constraint is an expected infeasibility, not a
                         scheduler defect. *)
                      Error
                        (Diag.infeasible ~code:"mfsa.style2-deadlock"
                           "MFSA: no style-2 placement within the \
                            rescheduling budget")
                    else
                      Error
                        (Diag.internal ~code:"mfsa.budget-exhausted"
                           "MFSA: rescheduling budget exhausted (internal)")
                  else if Hashtbl.mem no_widen c then
                    if unit_caps <> None then
                      (* Hard caps: this time budget does not work. *)
                      raise Infeasible_at_cs
                    else begin
                      Hashtbl.replace current c (Hashtbl.find current c + 1);
                      attempt ()
                    end
                  else begin
                    Hashtbl.replace no_widen c ();
                    attempt ()
                  end
            in
            attempt ())

let run ?config ?style ?weights ~library ~cs g =
  run_at ?config ?style ?weights ~library ~cs g

let run_resource ?(config = Config.default) ?style ?weights ~library ~limits g
    =
  if Dfg.Graph.num_nodes g = 0 then
    Error (Diag.input ~code:"mfsa.empty-graph" "MFSA: empty graph")
  else begin
    let lo = Timeframe.min_cs config g in
    let hi =
      List.fold_left
        (fun acc nd -> acc + Config.delay config nd.Dfg.Graph.kind)
        1 (Dfg.Graph.nodes g)
    in
    (* Past the horizon under style 2: when style 1 binds there under the
       same caps, the style stopped the search, not the caps. *)
    let style1_binds () =
      match run_at ~config ?weights ~unit_caps:limits ~library ~cs:hi g with
      | Ok _ -> true
      | Error _ | (exception Infeasible_at_cs) -> false
    in
    let rec search cs =
      if cs > hi then
        if style = Some No_self_loop && style1_binds () then
          Error
            (Diag.infeasible ~code:"mfsa.style2-deadlock"
               "MFSA: no style-2 placement within the serial horizon; \
                style 1 binds under the same caps")
        else
          Error
            (Diag.infeasible ~code:"mfsa.horizon"
               "MFSA: resource-constrained search exceeded the serial \
                horizon")
      else
        match
          run_at ~config ?style ?weights ~unit_caps:limits ~library ~cs g
        with
        | Ok o ->
            let makespan = Schedule.makespan o.schedule in
            Ok { o with schedule = { o.schedule with Schedule.cs = makespan } }
        | Error _ as e -> e (* permanent: empty graph, missing kind, ... *)
        | exception Infeasible_at_cs -> search (cs + 1)
    in
    search lo
  end
