(* A pipelined unit frees its issue slot after one step. *)
let alu_span a ~delay i =
  if a.Datapath.a_kind.Celllib.Library.stages > 1 then 1 else delay i

(* Every pair [(x, y)], [x] before [y] in the list, for which [f x y]. *)
let rec pairs_where f = function
  | [] -> []
  | x :: rest ->
      List.filter_map (fun y -> if f x y then Some (x, y) else None) rest
      @ pairs_where f rest

let unit_conflicts ?(share_mutex = true)
    ?(steps_overlap = Lifetime.steps_overlap ~latency:None) dp ~span ops =
  let g = dp.Datapath.graph and start = dp.Datapath.start in
  pairs_where
    (fun i j ->
      Lifetime.clash ~steps_overlap
        ~exclusive:(share_mutex && Dfg.Graph.mutually_exclusive g i j)
        start.(i) (span i) start.(j) (span j))
    ops

let reg_clashes regs ivs =
  (* First binding wins, as in [Left_edge.register_of]. *)
  let reg_of = Hashtbl.create 64 in
  List.iter
    (fun (v, r) -> Hashtbl.replace reg_of v r)
    (List.rev regs.Left_edge.reg_of);
  let stored =
    List.filter_map
      (fun iv ->
        Option.map
          (fun r -> (iv, r))
          (Hashtbl.find_opt reg_of iv.Lifetime.value))
      ivs
  in
  List.map
    (fun ((iv, r), (iv', _)) -> (iv.Lifetime.value, iv'.Lifetime.value, r))
    (pairs_where
       (fun (iv, r) (iv', r') -> r = r' && Lifetime.overlap iv iv')
       stored)

let datapath ?(style2 = false) ?share_mutex ?steps_overlap dp ~delay =
  let g = dp.Datapath.graph in
  let errs = ref [] in
  let add ~code fmt =
    Printf.ksprintf
      (fun s -> errs := Diag.internal ~code s :: !errs)
      fmt
  in
  let name i = (Dfg.Graph.node g i).Dfg.Graph.name in
  (* ALU occupancy and capability. *)
  List.iter
    (fun a ->
      List.iter
        (fun i ->
          let kind = (Dfg.Graph.node g i).Dfg.Graph.kind in
          if not (Celllib.Op_set.mem kind a.Datapath.a_kind.Celllib.Library.ops)
          then
            add ~code:"check.alu-capability"
              "ALU %d (%s) cannot execute %s" a.Datapath.a_id
              a.Datapath.a_kind.Celllib.Library.aname (name i))
        a.Datapath.a_ops;
      List.iter
        (fun (i, j) ->
          add ~code:"check.alu-overlap"
            "ALU %d executes %s and %s simultaneously" a.Datapath.a_id
            (name i) (name j))
        (unit_conflicts ?share_mutex ?steps_overlap dp
           ~span:(alu_span a ~delay) a.Datapath.a_ops))
    dp.Datapath.alus;
  (* Register sharing soundness. *)
  List.iter
    (fun (v, v', r) ->
      add ~code:"check.reg-clash" "register clash: %s and %s overlap in reg%d"
        v v' r)
    (reg_clashes dp.Datapath.regs
       (Lifetime.intervals g ~start:dp.Datapath.start ~delay
          ~cs:dp.Datapath.cs));
  if style2 then
    List.iter
      (fun a ->
        add ~code:"check.style2" "style-2 violation: ALU %d has a self loop" a)
      (Datapath.self_loop_alus dp);
  match !errs with [] -> Ok () | l -> Error (List.rev l)
