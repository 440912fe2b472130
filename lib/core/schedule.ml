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

let exclusive t i j =
  t.config.Config.share_mutex && Dfg.Graph.mutually_exclusive t.graph i j

let latency t = t.config.Config.functional_latency

(* Occupied cells of node [i] on its class grid, folded modulo the
   functional-pipelining latency when active. *)
let cells t i =
  let s = t.start.(i) and sp = span t i in
  match latency t with
  | None -> List.init sp (fun k -> s + k)
  | Some l -> List.init sp (fun k -> ((s + k - 1) mod l + l) mod l)

let cells_overlap t i j =
  Grid.steps_overlap ~latency:(latency t) t.start.(i) (span t i) t.start.(j)
    (span t j)

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
      (* Peak concurrency per class; mutually-exclusive ops stack on one
         unit, so count cliques of non-exclusive ops per cell greedily. *)
      List.map
        (fun c ->
          let members =
            List.filter
              (fun nd -> String.equal (Dfg.Graph.node_class t.graph nd) c)
              (Dfg.Graph.nodes t.graph)
            |> List.map (fun nd -> nd.Dfg.Graph.id)
          in
          let horizon =
            match latency t with Some l -> l | None -> t.cs + 1
          in
          let peak = ref 0 in
          for cell = 0 to horizon do
            let active =
              List.filter
                (fun i ->
                  List.mem
                    (match latency t with
                    | None -> cell
                    | Some _ -> cell)
                    (cells t i))
                members
            in
            (* Greedily pack mutually-exclusive ops onto shared units. *)
            let units = ref [] in
            List.iter
              (fun i ->
                let rec try_units = function
                  | [] -> units := [ i ] :: !units
                  | u :: rest ->
                      if List.for_all (fun j -> exclusive t i j) u then begin
                        units :=
                          (i :: u) :: List.filter (fun v -> v != u) !units;
                        ignore rest
                      end
                      else try_units rest
                in
                try_units !units)
              active;
            peak := max !peak (List.length !units)
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
      for i = 0 to n - 1 do
        if col.(i) < 1 then add (Col_range i);
        for j = i + 1 to n - 1 do
          if
            col.(i) = col.(j)
            && String.equal klass.(i) klass.(j)
            && cells_overlap t i j
            && not (exclusive t i j)
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
