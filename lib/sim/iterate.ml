type feedback = (string * string) list

let bad_feedback fmt = Diag.makef Diag.Input ~code:"sim.feedback" fmt

let validate_feedback g ~feedback ~init =
  let bad_out =
    List.find_opt (fun (out, _) -> Dfg.Graph.find g out = None) feedback
  in
  let bad_in =
    List.find_opt
      (fun (_, inp) -> not (List.mem inp (Dfg.Graph.inputs g)))
      feedback
  in
  match (bad_out, bad_in) with
  | Some (out, _), _ -> Error (bad_feedback "feedback source %S is not a node" out)
  | _, Some (_, inp) ->
      Error (bad_feedback "feedback target %S is not an input" inp)
  | None, None ->
      let missing =
        List.find_opt (fun (_, inp) -> List.assoc_opt inp init = None) feedback
      in
      (match missing with
      | Some (_, inp) ->
          Error (bad_feedback "feedback input %S has no initial value" inp)
      | None -> Ok ())

let drive ~step_one g ~feedback ~consts ~init ~stream ~iterations =
  match validate_feedback g ~feedback ~init with
  | Error _ as e -> e
  | Ok () ->
      let rec go k state acc =
        if k >= iterations then Ok (List.rev acc)
        else
          let env = stream k @ state @ consts in
          match step_one ~env with
          | Error d -> Error (Diag.prefix (Printf.sprintf "iteration %d: " k) d)
          | Ok values ->
              let next_state =
                List.map
                  (fun (out, inp) ->
                    match List.assoc_opt out values with
                    | Some v -> (inp, v)
                    | None ->
                        (* The feedback source was on an untaken branch:
                           hold the previous state value. *)
                        (inp, List.assoc inp state))
                  feedback
              in
              go (k + 1) next_state (values :: acc)
      in
      go 0 init []

let run dp ctrl ~feedback ~consts ~init ~stream ~iterations =
  drive
    ~step_one:(fun ~env ->
      Result.map (fun r -> r.Machine.values) (Machine.run dp ctrl ~env))
    dp.Rtl.Datapath.graph ~feedback ~consts ~init ~stream ~iterations

let reference g ~feedback ~consts ~init ~stream ~iterations =
  drive
    ~step_one:(fun ~env ->
      match Eval.run g env with
      | Error _ as e -> e
      | Ok values ->
          (* Keep only active nodes, mirroring the machine's behaviour. *)
          Ok
            (List.filter_map
               (fun nd ->
                 if Eval.active g ~values nd.Dfg.Graph.id then
                   Option.map
                     (fun v -> (nd.Dfg.Graph.name, v))
                     (Eval.value values nd.Dfg.Graph.name)
                 else None)
               (Dfg.Graph.nodes g)))
    g ~feedback ~consts ~init ~stream ~iterations

let mismatch fmt = Diag.makef Diag.Internal ~code:"sim.mismatch" fmt

let check dp ctrl ~feedback ~consts ~init ~stream ~iterations =
  let g = dp.Rtl.Datapath.graph in
  match
    ( reference g ~feedback ~consts ~init ~stream ~iterations,
      run dp ctrl ~feedback ~consts ~init ~stream ~iterations )
  with
  | Error d, _ | _, Error d -> Error d
  | Ok golden, Ok measured ->
      let rec compare_iters k = function
        | [], [] -> Ok ()
        | gv :: grest, mv :: mrest ->
            let bad =
              List.find_opt
                (fun (name, v) -> List.assoc_opt name mv <> Some v)
                gv
            in
            (match bad with
            | Some (name, v) ->
                Error
                  (mismatch
                     "iteration %d: %s expected %d, machine computed %s" k name
                     v
                     (match List.assoc_opt name mv with
                     | Some x -> string_of_int x
                     | None -> "nothing"))
            | None -> compare_iters (k + 1) (grest, mrest))
        | _ -> Error (mismatch "iteration count mismatch (internal)")
      in
      compare_iters 0 (golden, measured)
