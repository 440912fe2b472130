type delays = Op.kind -> int

let unit_delays (_ : Op.kind) = 1

type t = { asap : int array; alap : int array; cs : int }

let delay_of delays nd = max 1 (delays nd.Graph.kind)

let asap_schedule ~delays g =
  let n = Graph.num_nodes g in
  let asap = Array.make n 1 in
  List.iter
    (fun i ->
      let earliest =
        List.fold_left
          (fun acc p ->
            let pd = delay_of delays (Graph.node g p) in
            max acc (asap.(p) + pd))
          1 (Graph.preds g i)
      in
      asap.(i) <- earliest)
    (Graph.topological g);
  asap

let critical_path ?(delays = unit_delays) g =
  let asap = asap_schedule ~delays g in
  let finish i =
    asap.(i) + delay_of delays (Graph.node g i) - 1
  in
  List.fold_left (fun acc i -> max acc (finish i)) 0 (Graph.topological g)

let compute ?(delays = unit_delays) g ~cs =
  if cs < 1 then
    Error
      (Diag.makef Diag.Infeasible ~code:"bounds.budget" "time budget %d < 1" cs)
  else
    let n = Graph.num_nodes g in
    let asap = asap_schedule ~delays g in
    let alap = Array.make n 1 in
    let order = List.rev (Graph.topological g) in
    let infeasible = ref None in
    List.iter
      (fun i ->
        let d = delay_of delays (Graph.node g i) in
        let latest =
          match Graph.succs g i with
          | [] -> cs - d + 1
          | ss -> List.fold_left (fun acc s -> min acc (alap.(s) - d)) max_int ss
        in
        alap.(i) <- latest;
        if latest < asap.(i) && !infeasible = None then
          infeasible := Some (Graph.node g i).name)
      order;
    match !infeasible with
    | Some name ->
        Error
          (Diag.makef Diag.Infeasible ~code:"bounds.infeasible-budget"
             "infeasible: operation %S cannot fit in %d control steps \
              (critical path is %d)"
             name cs (critical_path ~delays g))
    | None -> Ok { asap; alap; cs }

let mobility t i = t.alap.(i) - t.asap.(i)

let concurrency ?(delays = unit_delays) g ~start ~cs =
  let classes = Graph.classes g in
  let profile = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace profile c (Array.make (cs + 1) 0)) classes;
  List.iter
    (fun nd ->
      let c = Graph.node_class g nd in
      let arr = Hashtbl.find profile c in
      let d = delay_of delays nd in
      for s = start.(nd.Graph.id) to min cs (start.(nd.Graph.id) + d - 1) do
        if s >= 1 then arr.(s) <- arr.(s) + 1
      done)
    (Graph.nodes g);
  List.map
    (fun c ->
      let arr = Hashtbl.find profile c in
      (c, Array.fold_left max 0 arr))
    classes

(* Chaining: each value carries (step, ready-offset). An op can start in the
   predecessor's step at the predecessor's finish offset when its own
   propagation delay still fits before the clock edge; otherwise it starts at
   offset 0 of the next step. *)

type chained = {
  ch_asap : (int * float) array;
  ch_alap : (int * float) array;
  ch_cs : int;
}

let eps = 1e-9

(* Per-node propagation delays: [node_prop] overrides the per-kind
   [prop_delay] (width-scaled delays from the range analysis). *)
let no_override (_ : Graph.node) : float option = None

let pd_of node_prop prop_delay nd =
  match node_prop nd with
  | Some d -> d
  | None -> prop_delay nd.Graph.kind

let check_fits ?(delays = unit_delays) ?(node_prop = no_override) ~prop_delay
    ~clock g =
  let pd = pd_of node_prop prop_delay in
  (* Multi-cycle operations span several clock periods by design; the
     single-period fit requirement applies to combinational (1-cycle)
     operations only. *)
  let offender =
    List.find_opt
      (fun nd -> delay_of delays nd = 1 && pd nd > clock +. eps)
      (Graph.nodes g)
  in
  match offender with
  | Some nd ->
      Error
        (Diag.makef Diag.Infeasible ~code:"bounds.chain-clock"
           "operation %S (%s) has delay %.2f ns > clock period %.2f ns"
           nd.Graph.name
           (Op.to_string nd.Graph.kind)
           (pd nd) clock)
  | None -> Ok ()

let chained_asap ?(delays = unit_delays) ?(node_prop = no_override)
    ~prop_delay ~clock g =
  let pd = pd_of node_prop prop_delay in
  let n = Graph.num_nodes g in
  let start = Array.make n (1, 0.0) in
  List.iter
    (fun i ->
      let nd = Graph.node g i in
      let d = pd nd in
      let di = delay_of delays nd in
      (* Ready time of the latest-arriving operand, as (step, offset). An
         edge chains only between two 1-cycle operations; a multi-cycle
         producer (or consumer) registers the value, making it available at
         offset 0 of the step after the producer finishes. *)
      let step, off =
        List.fold_left
          (fun (bs, bo) p ->
            let ps, po = start.(p) in
            let pnd = Graph.node g p in
            let p_delay = pd pnd in
            let pdi = delay_of delays pnd in
            let fs, fo =
              if pdi = 1 && di = 1 then (ps, po +. p_delay)
              else (ps + pdi, 0.0)
            in
            if fs > bs || (fs = bs && fo > bo) then (fs, fo) else (bs, bo))
          (1, 0.0) (Graph.preds g i)
      in
      if di = 1 && off +. d <= clock +. eps then start.(i) <- (step, off)
      else if off <= eps then start.(i) <- (step, 0.0)
      else start.(i) <- (step + 1, 0.0))
    (Graph.topological g);
  start

let chained_critical_path ?(delays = unit_delays) ?(node_prop = no_override)
    ~prop_delay ~clock g =
  match check_fits ~delays ~node_prop ~prop_delay ~clock g with
  | Error _ as e -> e
  | Ok () ->
      let start = chained_asap ~delays ~node_prop ~prop_delay ~clock g in
      let finish i (s, _) = s + delay_of delays (Graph.node g i) - 1 in
      let cp = ref 0 in
      Array.iteri (fun i pos -> cp := max !cp (finish i pos)) start;
      Ok !cp

let compute_chained ?(delays = unit_delays) ?(node_prop = no_override)
    ~prop_delay ~clock g ~cs =
  match check_fits ~delays ~node_prop ~prop_delay ~clock g with
  | Error _ as e -> e
  | Ok () ->
      let pd = pd_of node_prop prop_delay in
      let n = Graph.num_nodes g in
      let ch_asap = chained_asap ~delays ~node_prop ~prop_delay ~clock g in
      (* Backward pass: latest (step, start offset) such that every successor
         still meets its own latest start. *)
      let ch_alap = Array.make n (cs, 0.0) in
      let infeasible = ref None in
      List.iter
        (fun i ->
          let nd = Graph.node g i in
          let d = pd nd in
          let di = delay_of delays nd in
          let latest =
            match Graph.succs g i with
            | [] ->
                (cs - di + 1, if di = 1 then clock -. d else 0.0)
            | ss ->
                List.fold_left
                  (fun (bs, bo) s ->
                    let ls, lo = ch_alap.(s) in
                    let ds = delay_of delays (Graph.node g s) in
                    (* Finish no later than the successor's latest start:
                       chain within the successor's step (1-cycle pair
                       only), or complete by the end of the step before the
                       successor starts — [di] steps earlier for a
                       multi-cycle producer. *)
                    let cand =
                      if di = 1 && ds = 1 then begin
                        let cand_chain = (ls, lo -. d) in
                        let cand_prev = (ls - 1, clock -. d) in
                        if snd cand_chain >= -.eps then cand_chain
                        else cand_prev
                      end
                      else if di = 1 then (ls - 1, clock -. d)
                      else (ls - di, 0.0)
                    in
                    if fst cand < bs || (fst cand = bs && snd cand < bo) then
                      cand
                    else (bs, bo))
                  (max_int, infinity) ss
          in
          ch_alap.(i) <- latest;
          let as_, ao = ch_asap.(i) in
          let ls, lo = latest in
          if (ls < as_ || (ls = as_ && lo < ao -. eps)) && !infeasible = None
          then infeasible := Some nd.Graph.name)
        (List.rev (Graph.topological g));
      (match !infeasible with
      | Some name ->
          Error
            (Diag.makef Diag.Infeasible ~code:"bounds.infeasible-budget"
               "infeasible under chaining: operation %S cannot fit in %d steps"
               name cs)
      | None -> Ok { ch_asap; ch_alap; ch_cs = cs })
