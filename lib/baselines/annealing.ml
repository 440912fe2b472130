type params = {
  seed : int;
  initial_temp : float;
  cooling : float;
  sweeps : int;
}

let default_params =
  { seed = 1; initial_temp = 50.0; cooling = 0.95; sweeps = 150 }

(* Local splitmix so runs do not depend on stdlib Random state. *)
type rng = { mutable s : int64 }

let rand_next r =
  let open Int64 in
  r.s <- add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let rand_int r bound = Int64.to_int (Int64.shift_right_logical (rand_next r) 2) mod bound
let rand_float r = Int64.to_float (Int64.shift_right_logical (rand_next r) 11) /. 9007199254740992.0

let default_unit_area klass =
  Celllib.Library.(make_alu [ Option.value ~default:Dfg.Op.Add (Dfg.Op.of_string klass) ]).Celllib.Library.area

let cost ?(unit_area = default_unit_area) cfg g ~start ~cs =
  let counts =
    Dfg.Bounds.concurrency ~delays:(Core.Config.delay cfg) g ~start ~cs
  in
  let units =
    List.fold_left (fun acc (c, k) -> acc +. (unit_area c *. float_of_int k)) 0. counts
  in
  let ivs =
    Rtl.Lifetime.intervals g ~start
      ~delay:(fun i ->
        Core.Config.delay cfg (Dfg.Graph.node g i).Dfg.Graph.kind)
      ~cs
  in
  units +. (650.0 *. float_of_int (Rtl.Lifetime.max_overlap ivs))

(* Dependency-respecting window for moving op [i] while others stay put. *)
let window cfg g bounds ~start i =
  let delay j = Core.Config.delay cfg (Dfg.Graph.node g j).Dfg.Graph.kind in
  let lo =
    List.fold_left
      (fun acc p -> max acc (start.(p) + delay p))
      bounds.Dfg.Bounds.asap.(i) (Dfg.Graph.preds g i)
  in
  let hi =
    List.fold_left
      (fun acc s -> min acc (start.(s) - delay i))
      bounds.Dfg.Bounds.alap.(i) (Dfg.Graph.succs g i)
  in
  (lo, hi)

let run ?(config = Core.Config.default) ?(params = default_params)
    ?unit_area g ~cs =
  if Dfg.Graph.num_nodes g = 0 then
    Error
      (Diag.infeasible ~code:"annealing.empty-graph" "annealing: empty graph")
  else
    match Core.Timeframe.bounds config g ~cs with
    | Error _ as e -> e
    | Ok bounds ->
        let n = Dfg.Graph.num_nodes g in
        let start = Array.copy bounds.Dfg.Bounds.asap in
        let rng = { s = Int64.of_int params.seed } in
        let current = ref (cost ?unit_area config g ~start ~cs) in
        let best = ref !current in
        let best_start = ref (Array.copy start) in
        let temp = ref params.initial_temp in
        for _sweep = 1 to params.sweeps do
          for _m = 1 to n do
            let i = rand_int rng n in
            let lo, hi = window config g bounds ~start i in
            if hi > lo then begin
              let old = start.(i) in
              let candidate = lo + rand_int rng (hi - lo + 1) in
              if candidate <> old then begin
                start.(i) <- candidate;
                let next = cost ?unit_area config g ~start ~cs in
                let accept =
                  next <= !current
                  || rand_float rng < exp ((!current -. next) /. !temp)
                in
                if accept then begin
                  current := next;
                  if next < !best then begin
                    best := next;
                    best_start := Array.copy start
                  end
                end
                else start.(i) <- old
              end
            end
          done;
          temp := !temp *. params.cooling
        done;
        let start = !best_start in
        let col = Colbind.columns config g ~start in
        Ok (Core.Schedule.make ~col ~config ~cs g start)
