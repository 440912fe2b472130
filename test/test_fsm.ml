let test name f = Alcotest.test_case name `Quick f

let encodings () =
  Alcotest.(check int) "binary bits for 4" 2 (Rtl.Fsm.state_bits Rtl.Fsm.Binary ~steps:4);
  Alcotest.(check int) "binary bits for 5" 3 (Rtl.Fsm.state_bits Rtl.Fsm.Binary ~steps:5);
  Alcotest.(check int) "one-hot bits" 5 (Rtl.Fsm.state_bits Rtl.Fsm.One_hot ~steps:5);
  Alcotest.(check string) "binary s1" "00" (Rtl.Fsm.encode Rtl.Fsm.Binary ~steps:4 1);
  Alcotest.(check string) "binary s4" "11" (Rtl.Fsm.encode Rtl.Fsm.Binary ~steps:4 4);
  Alcotest.(check string) "one-hot s2" "0010" (Rtl.Fsm.encode Rtl.Fsm.One_hot ~steps:4 2);
  Alcotest.(check string) "gray s3" "11" (Rtl.Fsm.encode Rtl.Fsm.Gray ~steps:4 3);
  Alcotest.check_raises "state range"
    (Invalid_argument "Fsm.encode: state 5 outside 1..4") (fun () ->
      ignore (Rtl.Fsm.encode Rtl.Fsm.Binary ~steps:4 5))

let gray_adjacent_differ_by_one_bit () =
  let steps = 8 in
  let hamming a b =
    let d = ref 0 in
    String.iteri (fun i c -> if c <> b.[i] then incr d) a;
    !d
  in
  for s = 1 to steps - 1 do
    Alcotest.(check int)
      (Printf.sprintf "gray %d->%d" s (s + 1))
      1
      (hamming
         (Rtl.Fsm.encode Rtl.Fsm.Gray ~steps s)
         (Rtl.Fsm.encode Rtl.Fsm.Gray ~steps (s + 1)))
  done

let rom_of_diffeq () =
  let g = Workloads.Classic.diffeq () in
  let lib = Celllib.Ncr.for_graph g in
  let o = Helpers.check_ok "mfsa" (Core.Mfsa.run ~library:lib ~cs:4 g) in
  let ctrl =
    Rtl.Controller.make o.Core.Mfsa.datapath ~delay:(fun _ -> 1)
  in
  let rows = Rtl.Fsm.rom ctrl in
  Alcotest.(check int) "one row per step" 4 (List.length rows);
  (* Every op appears in exactly one select across the ROM. *)
  let selects = List.concat_map (fun r -> r.Rtl.Fsm.rom_selects) rows in
  Alcotest.(check int) "11 micro-orders" 11 (List.length selects);
  (* Each step runs at most one op per ALU. *)
  List.iter
    (fun r ->
      let alus = List.map fst r.Rtl.Fsm.rom_selects in
      Alcotest.(check int)
        (Printf.sprintf "state %d: distinct ALUs" r.Rtl.Fsm.rom_state)
        (List.length alus)
        (List.length (List.sort_uniq compare alus)))
    rows;
  let txt = Rtl.Fsm.render ~encoding:Rtl.Fsm.One_hot ctrl in
  Alcotest.(check bool) "render mentions one-hot" true
    (Helpers.contains ~sub:"one-hot" txt);
  Alcotest.(check bool) "render has load column" true
    (Helpers.contains ~sub:"load:[" txt)

let suite =
  [
    test "state encodings" encodings;
    test "gray code adjacency" gray_adjacent_differ_by_one_bit;
    test "microcode ROM of diffeq" rom_of_diffeq;
  ]
