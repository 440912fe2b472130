type spec = {
  ops : int;
  kinds : Dfg.Op.kind list;
  inputs : int;
  locality : int;
  guard_prob : float;
}

let default =
  {
    ops = 30;
    kinds = [ Dfg.Op.Add; Dfg.Op.Sub; Dfg.Op.Mul ];
    inputs = 4;
    locality = 8;
    guard_prob = 0.0;
  }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let check_spec spec =
  let bad code msg = Error (Diag.input ~code msg) in
  let* () =
    if spec.ops < 1 then
      bad "random-dag.ops" "Random_dag.generate: ops must be >= 1"
    else Ok ()
  in
  let* () =
    if spec.inputs < 1 then
      bad "random-dag.inputs" "Random_dag.generate: inputs must be >= 1"
    else Ok ()
  in
  if spec.kinds = [] then
    bad "random-dag.kinds" "Random_dag.generate: empty kind universe"
  else Ok ()

let generate ?(spec = default) ~seed () =
  let* () = check_spec spec in
  let rng = Prng.create seed in
  let input_names = List.init spec.inputs (Printf.sprintf "in%d") in
  (* Guards reference an early comparison node when requested. *)
  let want_guards = spec.guard_prob > 0. in
  let cond_name = "gcond" in
  (* Guard scoping: an op guarded on (c, arm) may read unguarded values or
     same-arm values; unguarded ops read only unguarded values. Keep one
     pool per context. *)
  let pool_plain = ref (Array.of_list input_names) in
  let pool_true = ref [||] in
  let pool_false = ref [||] in
  let add_value guards v =
    match guards with
    | [] -> pool_plain := Array.append !pool_plain [| v |]
    | [ (_, true) ] -> pool_true := Array.append !pool_true [| v |]
    | _ -> pool_false := Array.append !pool_false [| v |]
  in
  let draw_operand guards =
    let arm_pool =
      match guards with
      | [] -> [||]
      | [ (_, true) ] -> !pool_true
      | _ -> !pool_false
    in
    (* Prefer recent values (locality window) over the combined pools. *)
    let plain = !pool_plain in
    let total = Array.length plain + Array.length arm_pool in
    let idx_from_tail k =
      (* k counts back from the freshest values across both pools. *)
      if k < Array.length arm_pool then
        arm_pool.(Array.length arm_pool - 1 - k)
      else plain.(Array.length plain - 1 - (k - Array.length arm_pool))
    in
    let window = min total (spec.locality + spec.inputs) in
    idx_from_tail (Prng.int rng window)
  in
  let rows = ref [] in
  if want_guards then begin
    let a = draw_operand [] and b = draw_operand [] in
    rows := [ (cond_name, Dfg.Op.Lt, [ a; b ], []) ]
    (* The condition itself stays out of the operand pools so guarded math
       never consumes it as data. *)
  end;
  for i = 0 to spec.ops - 1 do
    let kind = Prng.pick rng spec.kinds in
    let name = Printf.sprintf "n%d" i in
    let guards =
      if want_guards && Prng.float rng < spec.guard_prob then
        [ (cond_name, Prng.bool rng) ]
      else []
    in
    let args = List.init (Dfg.Op.arity kind) (fun _ -> draw_operand guards) in
    rows := (name, kind, args, guards) :: !rows;
    add_value guards name
  done;
  Dfg.Graph.of_ops ~inputs:input_names (List.rev !rows)

let generate_exn ?spec ~seed () =
  match generate ?spec ~seed () with
  | Ok g -> g
  | Error d -> invalid_arg (Diag.message d)
