(* Instance [suffix] of [g]: every value and array renamed. A renamed array
   stays in its original's bank, so the instances share the bank's ports
   but get no address edges between them. *)
let add_instance b g suffix =
  let rename v = v ^ suffix in
  List.iter (fun v -> Dfg.Graph.Builder.add_input b (rename v)) (Dfg.Graph.inputs g);
  List.iter
    (fun (a : Dfg.Graph.array_decl) ->
      Dfg.Graph.Builder.declare_array ~bank:a.Dfg.Graph.a_bank b
        ~name:(rename a.Dfg.Graph.a_name) ~size:a.Dfg.Graph.a_size)
    (Dfg.Graph.arrays g);
  List.iter
    (fun nd ->
      Dfg.Graph.Builder.add_op b
        ~guards:(List.map (fun (c, a) -> (rename c, a)) nd.Dfg.Graph.guards)
        ~name:(rename nd.Dfg.Graph.name)
        nd.Dfg.Graph.kind
        (List.map rename nd.Dfg.Graph.args))
    (Dfg.Graph.nodes g);
  List.iter
    (fun (v, r) -> Dfg.Graph.Builder.declare_range b (rename v) r)
    (Dfg.Graph.ranges g);
  List.iter
    (fun (v, w) -> Dfg.Graph.Builder.declare_width b (rename v) w)
    (Dfg.Graph.declared_widths g)

let instances ~what suffixes g =
  let b = Dfg.Graph.Builder.create () in
  List.iter
    (fun (bk : Dfg.Graph.bank_decl) ->
      Dfg.Graph.Builder.declare_bank b ~name:bk.Dfg.Graph.b_name
        ~ports:bk.Dfg.Graph.b_ports)
    (Dfg.Graph.banks g);
  List.iter (add_instance b g) suffixes;
  match Dfg.Graph.Builder.build b with
  | Ok gk -> Ok gk
  | Error msg ->
      Error
        (Diag.internal ~code:"pipeline.rename"
           (Printf.sprintf "Pipeline.%s: renaming broke the graph: %s" what
              msg))

let replicate ~copies g =
  if copies < 1 then
    Error
      (Diag.input ~code:"pipeline.bad-copies"
         "Pipeline.replicate: copies must be >= 1")
  else
    instances ~what:"replicate"
      (List.init copies (fun k -> Printf.sprintf "_i%d" (k + 1)))
      g

let double ?(suffixes = ("_i1", "_i2")) g =
  let s1, s2 = suffixes in
  instances ~what:"double" [ s1; s2 ] g

let unfold sched ~latency ?instances () =
  let g = sched.Schedule.graph in
  let cs = sched.Schedule.cs in
  let copies =
    match instances with
    | Some k -> max 1 k
    | None -> ((cs + latency - 1) / latency) + 1
  in
  match sched.Schedule.col with
  | None ->
      Error
        (Diag.input ~code:"pipeline.unbound"
           "Pipeline.unfold: needs a column-bound schedule")
  | Some col -> (
      match replicate ~copies g with
      | Error _ as e -> e
      | Ok gk ->
      let n = Dfg.Graph.num_nodes g in
      let nk = Dfg.Graph.num_nodes gk in
      let start' = Array.make nk 0 in
      let col' = Array.make nk 0 in
      let offset' = Array.make nk 0.0 in
      List.iter
        (fun nd ->
          (* Instance k of node [i] lands at index (k-1)*n + i because
             replicate emits whole instances in order. *)
          let i = nd.Dfg.Graph.id mod n in
          let k = nd.Dfg.Graph.id / n in
          start'.(nd.Dfg.Graph.id) <-
            sched.Schedule.start.(i) + (k * latency);
          col'.(nd.Dfg.Graph.id) <- col.(i);
          offset'.(nd.Dfg.Graph.id) <- sched.Schedule.offset.(i))
        (Dfg.Graph.nodes gk);
      let config =
        { (sched.Schedule.config) with Config.functional_latency = None }
      in
      Ok
        (Schedule.make ~col:col' ~offset:offset' ~config
           ~cs:(cs + ((copies - 1) * latency))
           gk start'))

let slot ~latency step = (step - 1) mod latency

let folded_profile sched ~latency =
  let g = sched.Schedule.graph in
  let classes = Dfg.Graph.classes g in
  let profile =
    List.map (fun c -> (c, Array.make latency 0)) classes
  in
  List.iter
    (fun nd ->
      let i = nd.Dfg.Graph.id in
      let c = Dfg.Graph.node_class g nd in
      let arr = List.assoc c profile in
      let sp =
        Config.span sched.Schedule.config nd.Dfg.Graph.kind
      in
      for k = 0 to min (sp - 1) (latency - 1) do
        let s = slot ~latency (sched.Schedule.start.(i) + k) in
        arr.(s) <- arr.(s) + 1
      done)
    (Dfg.Graph.nodes g);
  profile

let speedup ~cs ~latency = float_of_int cs /. float_of_int latency

let min_latency g cfg ~limits =
  List.fold_left
    (fun acc (c, n_c) ->
      let units = Option.value ~default:1 (List.assoc_opt c limits) in
      let d =
        (* All kinds in one single-function class share a symbol, hence a
           delay; find a representative node. *)
        match
          List.find_opt
            (fun nd -> String.equal (Dfg.Graph.node_class g nd) c)
            (Dfg.Graph.nodes g)
        with
        | Some nd -> Config.span cfg nd.Dfg.Graph.kind
        | None -> 1
      in
      max acc (((n_c * d) + units - 1) / units))
    1 (Dfg.Graph.count_by_class g)
