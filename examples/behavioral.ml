(* From behaviour to silicon in one file: write the HAL differential
   equation as imperative behaviour, compile it with the front end, clean
   it with CSE, and synthesise with MFSA — the complete paper pipeline.

     dune exec examples/behavioral.exe *)

let source =
  "# One Euler step of y'' + 3xy' + 3y = 0 (the HAL benchmark behaviour).\n\
   input x, y, u, dx, a;\n\
   x1 = x + dx;\n\
   u1 = u - 3 * x * u * dx - 3 * y * dx;\n\
   y1 = y + u * dx;\n\
   go = x1 < a;\n\
   if (go) {\n\
  \  next = y1 + u1;\n\
   } else {\n\
  \  next = y1 - u1;\n\
   }\n"

let or_fail = function Ok v -> v | Error e -> failwith (Diag.message e)

let () =
  print_endline "behavioural source:";
  print_string source;
  print_newline ();

  let raw = or_fail (Dfg.Frontend.compile source) in
  Printf.printf "compiled: %d operations (%s)\n" (Dfg.Graph.num_nodes raw)
    (String.concat ", "
       (List.map
          (fun (c, n) -> Printf.sprintf "%d %s" n c)
          (Dfg.Graph.count_by_class raw)));

  let g = or_fail (Dfg.Cse.run raw) in
  Printf.printf "after CSE: %d operations (%d duplicates removed)\n\n"
    (Dfg.Graph.num_nodes g)
    (Dfg.Graph.num_nodes raw - Dfg.Graph.num_nodes g);

  let library = Celllib.Ncr.for_graph g in
  let cs = Dfg.Bounds.critical_path g in
  let o = or_fail (Core.Mfsa.run ~library ~cs g) in
  Format.printf "MFSA at T=%d:@.%a@.%a@.@." cs Rtl.Datapath.pp
    o.Core.Mfsa.datapath Rtl.Cost.pp o.Core.Mfsa.cost;

  (* Execute: both branch outcomes on concrete inputs. *)
  let delay i =
    Core.Config.delay o.Core.Mfsa.schedule.Core.Schedule.config
      (Dfg.Graph.node g i).Dfg.Graph.kind
  in
  let ctrl = Rtl.Controller.make o.Core.Mfsa.datapath ~delay in
  List.iter
    (fun (x, a) ->
      let env =
        [ ("x", x); ("y", 5); ("u", 3); ("dx", 1); ("a", a) ]
        @ Dfg.Frontend.const_env g
      in
      match Sim.Machine.run o.Core.Mfsa.datapath ctrl ~env with
      | Error e -> failwith (Diag.message e)
      | Ok r ->
          let value n = List.assoc_opt n r.Sim.Machine.values in
          Printf.printf
            "x=%d a=%d: go=%s, then-branch next=%s, else-branch next=%s\n" x a
            (match value "go" with Some v -> string_of_int v | None -> "-")
            (match value "next" with Some v -> string_of_int v | None -> "(skipped)")
            (match value "next_else" with
            | Some v -> string_of_int v
            | None -> "(skipped)"))
    [ (2, 10); (2, 1) ];
  match Sim.Equiv.check_random o.Core.Mfsa.datapath ctrl with
  | Ok () -> print_endline "\ngolden-model equivalence: ok"
  | Error e -> failwith (Diag.message e)
