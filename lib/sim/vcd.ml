(* VCD identifiers: printable ASCII starting at '!'. *)
let ident k = Printf.sprintf "%c%c" (Char.chr (33 + (k mod 90))) (Char.chr (33 + (k / 90)))

let binary_of_int width v =
  String.init width (fun i ->
      if (v lsr (width - 1 - i)) land 1 = 1 then '1' else '0')

let width = 32

let emit ?(design_name = "design") dp (r : Machine.run_result) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n_regs = Array.length r.Machine.final_regs in
  let alus = List.map (fun a -> a.Rtl.Datapath.a_id) dp.Rtl.Datapath.alus in
  let state_id = ident 0 in
  let reg_id k = ident (1 + k) in
  let alu_id a = ident (1 + n_regs + a) in
  add "$date reproduction run $end\n";
  add "$version mfs-synth simulator $end\n";
  add "$timescale 1 ns $end\n";
  add "$scope module %s $end\n" design_name;
  add "$var wire 8 %s state $end\n" state_id;
  for k = 0 to n_regs - 1 do
    add "$var reg %d %s reg_%d [%d:0] $end\n" width (reg_id k) k (width - 1)
  done;
  List.iter
    (fun a -> add "$var wire %d %s alu_out_%d [%d:0] $end\n" width (alu_id a) a (width - 1))
    alus;
  add "$upscope $end\n$enddefinitions $end\n";
  (* Initial values: everything undefined. *)
  add "#0\n$dumpvars\nb%s %s\n" (binary_of_int 8 0) state_id;
  for k = 0 to n_regs - 1 do
    add "bx %s\n" (reg_id k)
  done;
  List.iter (fun a -> add "bx %s\n" (alu_id a)) alus;
  add "$end\n";
  let prev_regs = Array.make n_regs None in
  let prev_wires = ref [] in
  List.iter
    (fun snap ->
      add "#%d\n" snap.Machine.snap_step;
      add "b%s %s\n" (binary_of_int 8 snap.Machine.snap_step) state_id;
      Array.iteri
        (fun k v ->
          if v <> prev_regs.(k) then begin
            (match v with
            | Some x -> add "b%s %s\n" (binary_of_int width x) (reg_id k)
            | None -> add "bx %s\n" (reg_id k));
            prev_regs.(k) <- v
          end)
        snap.Machine.snap_regs;
      (* ALU wires are per-step combinational values. *)
      List.iter
        (fun a ->
          let now = List.assoc_opt a snap.Machine.snap_wires in
          let before = List.assoc_opt a !prev_wires in
          if now <> before then
            match now with
            | Some x -> add "b%s %s\n" (binary_of_int width x) (alu_id a)
            | None -> add "bx %s\n" (alu_id a))
        alus;
      prev_wires := snap.Machine.snap_wires)
    r.Machine.trace;
  add "#%d\n" (List.length r.Machine.trace + 1);
  Buffer.contents buf

let write_file ~path ?design_name dp r =
  match
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (emit ?design_name dp r))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error (Diag.input ~code:"vcd.write" msg)
