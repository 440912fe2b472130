(* Streaming execution: synthesise the biquad IIR filter once, then run the
   resulting datapath over a whole input signal, feeding the section state
   registers back between samples — the synthesised hardware doing the job
   the behaviour describes.

     dune exec examples/streaming.exe *)

let or_fail = function Ok v -> v | Error e -> failwith (Diag.message e)

let () =
  let g = Workloads.Classic.biquad () in
  Printf.printf "biquad cascade: %d ops (%s), critical path %d\n\n"
    (Dfg.Graph.num_nodes g)
    (String.concat ", "
       (List.map
          (fun (c, n) -> Printf.sprintf "%d %s" n c)
          (Dfg.Graph.count_by_class g)))
    (Dfg.Bounds.critical_path g);

  let library = Celllib.Ncr.for_graph g in
  let cs = Dfg.Bounds.critical_path g + 1 in
  let o = or_fail (Core.Mfsa.run ~library ~cs g) in
  Printf.printf "synthesised at T=%d: %s, %.0f um2\n\n" cs
    (Rtl.Cost.alu_config o.Core.Mfsa.datapath)
    o.Core.Mfsa.cost.Rtl.Cost.total;

  let controller =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:(fun _ -> 1)
  in

  (* Section states feed back; coefficients are constants. The first
     section is a mild low-pass-ish integer filter, the second an echo. *)
  let feedback =
    [ ("s1n1", "s11"); ("s2n1", "s21"); ("s1n2", "s12"); ("s2n2", "s22") ]
  in
  let consts =
    [ ("b01", 2); ("b11", 1); ("b21", 0); ("a11", 1); ("a21", 0);
      ("b02", 1); ("b12", 0); ("b22", 0); ("a12", 0); ("a22", 1) ]
  in
  let init = [ ("s11", 0); ("s21", 0); ("s12", 0); ("s22", 0) ] in
  let signal = [ 1; 0; 0; 2; 0; 0; 0; -1; 0; 0; 0; 0 ] in
  let stream k = [ ("xin", List.nth signal k) ] in
  let iterations = List.length signal in

  (* Cross-check the run against the iterated golden model first. *)
  (match
     Sim.Iterate.check o.Core.Mfsa.datapath controller ~feedback ~consts ~init
       ~stream ~iterations
   with
  | Ok () -> print_endline "machine vs golden model over the stream: ok"
  | Error e -> failwith (Diag.message e));

  let out =
    or_fail
      (Sim.Iterate.run o.Core.Mfsa.datapath controller ~feedback ~consts ~init
         ~stream ~iterations)
  in
  Printf.printf "\n%-6s %-6s %-6s\n" "k" "x[k]" "y[k]";
  List.iteri
    (fun k values ->
      Printf.printf "%-6d %-6d %-6d\n" k (List.nth signal k)
        (List.assoc "y2" values))
    out;
  Printf.printf
    "\n(%d control steps per sample; with --latency folding the initiation\n\
    \ interval drops below the critical path — see pipelined_filter.exe)\n"
    cs
