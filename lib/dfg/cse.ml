let operand_key kind args =
  if Op.is_commutative kind then List.sort String.compare args else args

let guard_key guards =
  List.sort compare guards

let node_key resolve nd =
  ( nd.Graph.kind,
    operand_key nd.Graph.kind (List.map resolve nd.Graph.args),
    guard_key (List.map (fun (c, a) -> (resolve c, a)) nd.Graph.guards) )

(* One pass: group by (kind, operands, guards) after resolving through the
   pending redirections, keep the first of each group. *)
let eliminate_once g =
  let redirect = Hashtbl.create 8 in
  let resolve name =
    let rec go n = match Hashtbl.find_opt redirect n with Some n' -> go n' | None -> n in
    go name
  in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun nd ->
      (* Memory accesses are never merged: two textually equal loads may
         read different values when a store sits between them, and stores
         are effects, not expressions. *)
      if not (Op.is_mem nd.Graph.kind) then begin
        let key = node_key resolve nd in
        match Hashtbl.find_opt seen key with
        | Some keeper -> Hashtbl.replace redirect nd.Graph.name keeper
        | None -> Hashtbl.replace seen key nd.Graph.name
      end)
    (Graph.nodes g);
  if Hashtbl.length redirect = 0 then Ok g
  else begin
    let b = Graph.Builder.create () in
    List.iter (Graph.Builder.add_input b) (Graph.inputs g);
    Graph.Builder.import_memory b ~from:g;
    List.iter
      (fun nd ->
        if not (Hashtbl.mem redirect nd.Graph.name) then
          Graph.Builder.add_op b
            ~guards:(List.map (fun (c, a) -> (resolve c, a)) nd.Graph.guards)
            ~name:nd.Graph.name nd.Graph.kind
            (List.map resolve nd.Graph.args))
      (Graph.nodes g);
    Result.map (Graph.copy_annotations ~from:g) (Graph.Builder.build b)
  end

(* Iterate to a fixpoint: forward references can hide duplicates from a
   single pass. Each round removes at least one node, so this ends. *)
let rec run g =
  match eliminate_once g with
  | Error _ as e -> e
  | Ok g' -> if Graph.num_nodes g' = Graph.num_nodes g then Ok g' else run g'

let eliminate g = Result.map_error Diag.message (run g)

let savings g =
  match run g with
  | Ok g' -> Graph.num_nodes g - Graph.num_nodes g'
  | Error _ -> 0
