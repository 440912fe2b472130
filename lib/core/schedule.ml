type t = {
  graph : Dfg.Graph.t;
  config : Config.t;
  start : int array;
  col : int array option;
  offset : float array;
  cs : int;
}

let make ?col ?offset ~config ~cs graph start =
  let offset =
    match offset with
    | Some o -> o
    | None -> Array.make (Dfg.Graph.num_nodes graph) 0.0
  in
  { graph; config; start; col; offset; cs }

let kind t i = (Dfg.Graph.node t.graph i).Dfg.Graph.kind
let delay t i = Config.delay t.config (kind t i)
let span t i = Config.span t.config (kind t i)
let finish t i = t.start.(i) + delay t i - 1

let makespan t =
  let n = Dfg.Graph.num_nodes t.graph in
  let rec go acc i = if i >= n then acc else go (max acc (finish t i)) (i + 1) in
  go 0 0

let latency t = t.config.Config.functional_latency

(* [Rtl.Lifetime.clash] between two ops of one class. *)
let clash t =
  let steps_overlap = Grid.steps_overlap ~latency:(latency t) in
  fun i j ->
    Rtl.Lifetime.clash ~steps_overlap
      ~exclusive:(Config.exclusive t.config t.graph i j)
      t.start.(i) (span t i) t.start.(j) (span t j)

let fu_counts t =
  let classes = Dfg.Graph.classes t.graph in
  match t.col with
  | Some col ->
      List.map
        (fun c ->
          let used =
            List.fold_left
              (fun acc nd ->
                if String.equal (Dfg.Graph.node_class t.graph nd) c then
                  max acc col.(nd.Dfg.Graph.id)
                else acc)
              0 (Dfg.Graph.nodes t.graph)
          in
          (c, used))
        classes
  | None ->
      (* Peak concurrency per class, over the steps (folded modulo the
         latency); ops that do not clash stack on one unit, so pack each
         step's ops greedily. *)
      let clash = clash t in
      let steps_overlap = Grid.steps_overlap ~latency:(latency t) in
      let lo, hi =
        match latency t with Some l -> (1, l) | None -> (0, t.cs + 1)
      in
      List.map
        (fun c ->
          let members =
            List.filter
              (fun nd -> String.equal (Dfg.Graph.node_class t.graph nd) c)
              (Dfg.Graph.nodes t.graph)
            |> List.map (fun nd -> nd.Dfg.Graph.id)
          in
          let peak = ref 0 in
          for step = lo to hi do
            let active =
              List.filter
                (fun i -> steps_overlap step 1 t.start.(i) (span t i))
                members
            in
            let units =
              List.fold_left
                (fun units i ->
                  match
                    List.find_opt
                      (List.for_all (fun j -> not (clash i j)))
                      units
                  with
                  | Some u -> (i :: u) :: List.filter (fun v -> v != u) units
                  | None -> [ i ] :: units)
                [] active
            in
            peak := max !peak (List.length units)
          done;
          (c, !peak))
        classes

let chain_allowed t p i =
  match t.config.Config.chaining with
  | None -> false
  | Some { Config.prop_delay; clock } ->
      let pd j = Config.node_prop t.config prop_delay (Dfg.Graph.node t.graph j) in
      delay t p = 1 && delay t i = 1
      && t.start.(i) = t.start.(p)
      && t.offset.(i) +. 1e-9 >= t.offset.(p) +. pd p
      && t.offset.(i) +. pd i <= clock +. 1e-9

type violation =
  | Start_range of int
  | Horizon of int
  | Precedence of int * int
  | Col_range of int
  | Fu_conflict of int * int

let violations t =
  let found = ref [] in
  let add v = found := v :: !found in
  let n = Dfg.Graph.num_nodes t.graph in
  for i = 0 to n - 1 do
    if t.start.(i) < 1 then add (Start_range i);
    if finish t i > t.cs then add (Horizon i);
    List.iter
      (fun p ->
        if not (t.start.(i) >= t.start.(p) + delay t p || chain_allowed t p i)
        then add (Precedence (i, p)))
      (Dfg.Graph.preds t.graph i)
  done;
  (match t.col with
  | None -> ()
  | Some col ->
      let klass =
        Array.init n (fun i ->
            Dfg.Graph.node_class t.graph (Dfg.Graph.node t.graph i))
      in
      let clash = clash t in
      for i = 0 to n - 1 do
        if col.(i) < 1 then add (Col_range i);
        for j = i + 1 to n - 1 do
          if
            col.(i) = col.(j)
            && String.equal klass.(i) klass.(j)
            && clash i j
          then add (Fu_conflict (i, j))
        done
      done);
  List.rev !found

let check_diags t =
  let name i = (Dfg.Graph.node t.graph i).Dfg.Graph.name in
  let diag ~code fmt = Printf.ksprintf (Diag.internal ~code) fmt in
  List.map
    (function
      | Start_range i ->
          diag ~code:"schedule.start-range" "op %s starts at step %d < 1"
            (name i) t.start.(i)
      | Horizon i ->
          diag ~code:"schedule.horizon"
            "op %s finishes at step %d > horizon %d" (name i) (finish t i)
            t.cs
      | Precedence (i, p) ->
          diag ~code:"schedule.precedence"
            "precedence violated: %s (start %d) needs %s (finishes %d)"
            (name i) t.start.(i) (name p) (finish t p)
      | Col_range i ->
          diag ~code:"schedule.col-range" "op %s bound to column %d < 1"
            (name i)
            (Option.get t.col).(i)
      | Fu_conflict (i, j) ->
          diag ~code:"schedule.fu-conflict"
            "FU conflict: %s and %s share %s unit %d" (name i) (name j)
            (Dfg.Graph.node_class t.graph (Dfg.Graph.node t.graph i))
            (Option.get t.col).(i))
    (violations t)

let check_diag t =
  match check_diags t with
  | [] -> Ok ()
  | ds ->
      Error
        (Diag.internal ~code:"schedule.invalid"
           (String.concat "; " (List.map Diag.message ds)))

let pp ppf t =
  Format.fprintf ppf "@[<v>schedule over %d steps:@," t.cs;
  for s = 1 to t.cs do
    let active =
      List.filter
        (fun nd ->
          let i = nd.Dfg.Graph.id in
          s >= t.start.(i) && s <= finish t i)
        (Dfg.Graph.nodes t.graph)
    in
    let cell nd =
      let i = nd.Dfg.Graph.id in
      match t.col with
      | Some col ->
          Printf.sprintf "%s@%s%d" nd.Dfg.Graph.name
            (Dfg.Graph.node_class t.graph nd)
            col.(i)
      | None -> nd.Dfg.Graph.name
    in
    Format.fprintf ppf "s%-2d: %s@," s (String.concat " " (List.map cell active))
  done;
  List.iter
    (fun (c, k) -> Format.fprintf ppf "units %s: %d@," c k)
    (fu_counts t);
  Format.fprintf ppf "@]"
