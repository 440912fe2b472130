type tree = {
  body : Dfg.Graph.t;
  budget : int;
  children : (string * tree) list;
}

type scheduled = {
  loop_schedule : Schedule.t;
  loop_children : (string * scheduled) list;
}

let add_iteration_control g ~counter ~bound =
  let clash n = Dfg.Graph.find g n <> None in
  if clash counter || clash bound || clash "c1" then
    Error
      (Diag.makef Diag.Input ~code:"loop.control-clash"
         "loop control: %S, %S or the unit constant \"c1\" names an existing \
          operation"
         counter bound)
  else begin
    let b = Dfg.Graph.Builder.create () in
    List.iter (Dfg.Graph.Builder.add_input b) (Dfg.Graph.inputs g);
    List.iter (Dfg.Graph.Builder.add_input b) [ counter; bound; "c1" ];
    List.iter
      (fun nd ->
        Dfg.Graph.Builder.add_op b ~guards:nd.Dfg.Graph.guards
          ~name:nd.Dfg.Graph.name nd.Dfg.Graph.kind nd.Dfg.Graph.args)
      (Dfg.Graph.nodes g);
    Dfg.Graph.Builder.add_op b ~name:(counter ^ "__next") Dfg.Op.Add
      [ counter; "c1" ];
    Dfg.Graph.Builder.add_op b ~name:(counter ^ "__continue") Dfg.Op.Lt
      [ counter ^ "__next"; bound ];
    (* The unit constant is exact; loop-carried widening in the range
       analysis keys off the [counter]/[counter ^ "__next"] pairing. *)
    Dfg.Graph.Builder.declare_range b "c1" (1, 1);
    Result.map
      (Dfg.Graph.copy_annotations ~from:g)
      (Dfg.Graph.Builder.build b)
  end

let expand_placeholder g ~name ~cycles =
  if cycles < 1 then
    Error
      (Diag.makef Diag.Input ~code:"loop.budget" "loop %S: budget %d < 1" name
         cycles)
  else
    match Dfg.Graph.find g name with
    | None ->
        Error
          (Diag.makef Diag.Input ~code:"loop.placeholder"
             "placeholder node %S not found" name)
    | Some target ->
        let b = Dfg.Graph.Builder.create () in
        List.iter (Dfg.Graph.Builder.add_input b) (Dfg.Graph.inputs g);
        List.iter
          (fun nd ->
            if nd.Dfg.Graph.id = target.Dfg.Graph.id then begin
              (* name__1 <- args; name__k <- name__(k-1); last keeps [name]. *)
              let link k = Printf.sprintf "%s__%d" name k in
              for k = 1 to cycles do
                let this = if k = cycles then name else link k in
                (* The chain head keeps the placeholder's own kind and
                   operands, so every dependency into the loop survives;
                   the tail links are unit-delay movs. *)
                let kind, args =
                  if k = 1 then (nd.Dfg.Graph.kind, nd.Dfg.Graph.args)
                  else (Dfg.Op.Mov, [ link (k - 1) ])
                in
                Dfg.Graph.Builder.add_op b ~guards:nd.Dfg.Graph.guards
                  ~name:this kind args
              done
            end
            else
              Dfg.Graph.Builder.add_op b ~guards:nd.Dfg.Graph.guards
                ~name:nd.Dfg.Graph.name nd.Dfg.Graph.kind nd.Dfg.Graph.args)
          (Dfg.Graph.nodes g);
        Result.map
          (Dfg.Graph.copy_annotations ~from:g)
          (Dfg.Graph.Builder.build b)

let ( let* ) = Result.bind

(* One bottom-up walk: the children first (innermost loops), then this
   body, with each child's placeholder expanded to the child's budget, run
   through [engine] against the local budget. *)
let rec walk engine node path t =
  let rec children acc = function
    | [] -> Ok (List.rev acc)
    | (name, child) :: rest ->
        let* sub = walk engine node (path ^ "/" ^ name) child in
        children ((name, sub) :: acc) rest
  in
  let* subs = children [] t.children in
  let* result =
    Result.map_error (Diag.prefix ("loop " ^ path ^ ": "))
      (let* body =
         List.fold_left
           (fun acc (name, child) ->
             let* g = acc in
             expand_placeholder g ~name ~cycles:child.budget)
           (Ok t.body) t.children
       in
       engine body ~cs:t.budget)
  in
  Ok (node result subs)

let schedule_nested ?config t =
  walk
    (fun body ~cs -> Mfs.schedule ?config body (Mfs.Time { cs }))
    (fun loop_schedule loop_children -> { loop_schedule; loop_children })
    "top" t

type allocated = {
  alloc_outcome : Mfsa.outcome;
  alloc_children : (string * allocated) list;
}

let allocate_nested ?config ?style ~library t =
  walk
    (fun body ~cs -> Mfsa.run ?config ?style ~library ~cs body)
    (fun alloc_outcome alloc_children -> { alloc_outcome; alloc_children })
    "top" t

let rec total_cost a =
  a.alloc_outcome.Mfsa.cost.Rtl.Cost.total
  +. List.fold_left (fun acc (_, c) -> acc +. total_cost c) 0. a.alloc_children

let total_steps s = s.loop_schedule.Schedule.cs
