type env = (string * int) list

let run g env =
  let values = Hashtbl.create 64 in
  let missing = ref None in
  List.iter
    (fun v ->
      match List.assoc_opt v env with
      | Some x -> Hashtbl.replace values v x
      | None -> if !missing = None then missing := Some v)
    (Dfg.Graph.inputs g);
  match !missing with
  | Some v ->
      Error
        (Diag.makef Diag.Input ~code:"sim.golden"
           "input %S missing from environment" v)
  | None ->
      (* Arrays start zeroed; loads outside the bounds read 0 and stores
         outside are dropped, so every run is total. Guard conditions are
         data predecessors, hence already computed when a store commits. *)
      let mems = Hashtbl.create 4 in
      List.iter
        (fun (a : Dfg.Graph.array_decl) ->
          Hashtbl.replace mems a.Dfg.Graph.a_name
            (Array.make a.Dfg.Graph.a_size 0))
        (Dfg.Graph.arrays g);
      let active_now nd =
        List.for_all
          (fun (c, arm) ->
            match Hashtbl.find_opt values c with
            | Some v -> (v <> 0) = arm
            | None -> false)
          nd.Dfg.Graph.guards
      in
      List.iter
        (fun i ->
          let nd = Dfg.Graph.node g i in
          let v =
            match (nd.Dfg.Graph.kind, nd.Dfg.Graph.args) with
            | Dfg.Op.Load, [ arr; idx ] ->
                let m = Hashtbl.find mems arr in
                let idx = Hashtbl.find values idx in
                if idx >= 0 && idx < Array.length m then m.(idx) else 0
            | Dfg.Op.Store, [ arr; idx; data ] ->
                let m = Hashtbl.find mems arr in
                let idx = Hashtbl.find values idx in
                let data = Hashtbl.find values data in
                if active_now nd && idx >= 0 && idx < Array.length m then
                  m.(idx) <- data;
                data
            | kind, args ->
                Dfg.Op.eval kind
                  (List.map (fun a -> Hashtbl.find values a) args)
          in
          Hashtbl.replace values nd.Dfg.Graph.name v)
        (Dfg.Graph.topological g);
      Ok
        (List.map
           (fun nd -> (nd.Dfg.Graph.name, Hashtbl.find values nd.Dfg.Graph.name))
           (Dfg.Graph.nodes g)
        @ env)

let value values name = List.assoc_opt name values

let active g ~values i =
  List.for_all
    (fun (c, arm) ->
      match List.assoc_opt c values with
      | None -> false
      | Some v -> (v <> 0) = arm)
    (Dfg.Graph.node g i).Dfg.Graph.guards
