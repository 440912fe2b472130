type interval = { value : string; birth : int; death : int }

let needs_register iv = iv.birth <= iv.death

let intervals ?(include_inputs = true) ?(hold_outputs = true) g ~start ~delay
    ~cs =
  let consumers = Hashtbl.create 32 in
  List.iter
    (fun nd ->
      let use arg =
        let cur = Option.value ~default:[] (Hashtbl.find_opt consumers arg) in
        Hashtbl.replace consumers arg (nd.Dfg.Graph.id :: cur)
      in
      List.iter use nd.Dfg.Graph.args;
      (* The controller reads guard conditions at the guarded op's step. *)
      List.iter (fun (c, _) -> use c) nd.Dfg.Graph.guards)
    (Dfg.Graph.nodes g);
  let death_of ?(hold = hold_outputs) ~birth value =
    let uses = Option.value ~default:[] (Hashtbl.find_opt consumers value) in
    let last_use =
      List.fold_left (fun acc i -> max acc (start.(i) - 1)) (birth - 1) uses
    in
    if uses = [] && hold then cs else last_use
  in
  let input_intervals =
    if include_inputs then
      List.map
        (fun v -> { value = v; birth = 0; death = death_of ~birth:0 v })
        (Dfg.Graph.inputs g)
    else []
  in
  let node_intervals =
    List.map
      (fun nd ->
        let i = nd.Dfg.Graph.id in
        let birth = start.(i) + delay i - 1 in
        (* A store's architectural output is the memory content; its
           pass-through value only needs a register when actually read. *)
        let hold = hold_outputs && nd.Dfg.Graph.kind <> Dfg.Op.Store in
        { value = nd.Dfg.Graph.name; birth;
          death = death_of ~hold ~birth nd.Dfg.Graph.name })
      (Dfg.Graph.nodes g)
  in
  input_intervals @ node_intervals

let overlap a b = a.birth <= b.death && b.birth <= a.death

(* Spans are small (operation cycle counts), so direct enumeration of the
   folded cells is fine. *)
let steps_overlap ~latency a sa b sb =
  match latency with
  | None -> a < b + sb && b < a + sa
  | Some l ->
      let norm x = ((x - 1) mod l + l) mod l in
      let cells_a = List.init sa (fun i -> norm (a + i)) in
      let cells_b = List.init sb (fun i -> norm (b + i)) in
      List.exists (fun c -> List.mem c cells_b) cells_a

let max_overlap ivs =
  let live = List.filter needs_register ivs in
  let boundaries =
    List.concat_map (fun iv -> [ iv.birth; iv.death ]) live
    |> List.sort_uniq compare
  in
  List.fold_left
    (fun acc t ->
      let n =
        List.length (List.filter (fun iv -> iv.birth <= t && t <= iv.death) live)
      in
      max acc n)
    0 boundaries
