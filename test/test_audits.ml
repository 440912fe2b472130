(* Exact rendering of the back-end audits. One planted schedule carries
   every schedule violation and one planted datapath an ALU overlap, a
   register clash and a port overlap; each audit's lines are pinned in
   order, with the nodes each lint finding implicates, so a change to how
   an audit is computed cannot silently change what it reports. *)

let test name f = Alcotest.test_case name `Quick f

let parse_exn src =
  match Dfg.Parser.parse src with
  | Ok g -> g
  | Error d -> Alcotest.failf "parse failed: %s" (Diag.to_string d)

let id g n = (Option.get (Dfg.Graph.find g n)).Dfg.Graph.id
let diag_lines = List.map Diag.to_string

let finding_lines =
  List.map (fun f ->
      Printf.sprintf "%s {%s}"
        (Diag.to_string f.Analysis.Finding.diag)
        (String.concat "," f.Analysis.Finding.nodes))

(* p feeds q in the same step without chaining, both on + unit 1; r starts
   before step 1 on column 0; s finishes past the 2-step horizon. *)
let bad_schedule () =
  let g =
    parse_exn "input a b\np = + a b\nq = + p b\nr = * a b\ns = * a b\n"
  in
  let start = Array.make 4 0 and col = Array.make 4 1 in
  start.(id g "p") <- 1;
  start.(id g "q") <- 1;
  start.(id g "r") <- 0;
  col.(id g "r") <- 0;
  start.(id g "s") <- 3;
  Core.Schedule.make ~col ~config:Core.Config.default ~cs:2 g start

let schedule_lines () =
  let s = bad_schedule () in
  Alcotest.(check (list string))
    "check_diags"
    [
      "error[schedule.precedence] precedence violated: q (start 1) needs p \
       (finishes 1)";
      "error[schedule.start-range] op r starts at step 0 < 1";
      "error[schedule.horizon] op s finishes at step 3 > horizon 2";
      "error[schedule.fu-conflict] FU conflict: p and q share + unit 1";
      "error[schedule.col-range] op r bound to column 0 < 1";
    ]
    (diag_lines (Core.Schedule.check_diags s));
  Alcotest.(check (list string))
    "Sched_lint.schedule"
    [
      "error[lint.sched-precedence] op q (start 1) reads p before it \
       finishes (step 1) {q,p}";
      "error[lint.sched-start] op r starts at step 0 < 1 {r}";
      "error[lint.sched-horizon] op s finishes at step 3 past the 2-step \
       horizon {s}";
      "error[lint.fu-conflict] ops p and q occupy + unit 1 in the same step \
       {p,q}";
      "error[lint.sched-col] op r is bound to column 0 < 1 {r}";
    ]
    (finding_lines (Analysis.Sched_lint.schedule s))

(* Two loads of a 1-port bank and two adds, all in step 1, with u summing
   the loads in step 2. The adds share ALU 0; the loads are put on one
   port; s and t, both held to the end, are put in one register. *)
let bad_datapath () =
  let g =
    parse_exn
      "input a b i j\n\
       range i 0 0\n\
       range j 1 1\n\
       array A 2 bank B\n\
       mem B ports 1\n\
       x = ld A i\n\
       y = ld A j\n\
       s = + a b\n\
       t = + b b\n\
       u = + x y\n"
  in
  let start = Array.make (Dfg.Graph.num_nodes g) 1 in
  start.(id g "u") <- 2;
  let delay _ = 1 in
  let adder = Celllib.Library.make_alu [ Dfg.Op.Add ] in
  let dp =
    Helpers.check_ok "elaborate"
      (Rtl.Datapath.elaborate g ~start ~delay ~cs:2
         ~assignments:[ (adder, [ id g "s"; id g "t"; id g "u" ]) ])
  in
  let port = { (List.hd dp.Rtl.Datapath.mems) with
               Rtl.Datapath.m_ops = [ id g "x"; id g "y" ] } in
  let alu_of = Array.copy dp.Rtl.Datapath.alu_of in
  alu_of.(id g "y") <- port.Rtl.Datapath.m_id;
  let regs = dp.Rtl.Datapath.regs in
  let reg v = Option.get (Rtl.Left_edge.register_of regs v) in
  let reg_of =
    List.map
      (fun (v, r) -> if v = "t" then (v, reg "s") else (v, r))
      regs.Rtl.Left_edge.reg_of
  in
  let dp =
    { dp with
      Rtl.Datapath.mems = [ port ];
      alu_of;
      regs = { regs with Rtl.Left_edge.reg_of } }
  in
  let sched =
    Core.Schedule.make ~config:Core.Config.default ~cs:2 g start
  in
  (dp, sched, delay)

let datapath_lines () =
  let dp, sched, delay = bad_datapath () in
  Alcotest.(check (list string))
    "Rtl.Check.datapath"
    [
      "error[check.alu-overlap] ALU 0 executes s and t simultaneously";
      "error[check.reg-clash] register clash: s and t overlap in reg2";
    ]
    (match Rtl.Check.datapath dp ~delay with
    | Ok () -> []
    | Error ds -> diag_lines ds);
  Alcotest.(check (list string))
    "Sched_lint.lifetimes ~regs"
    [
      "error[lint.reg-lifetime-clash] values s and t share reg2 while both \
       are live {s,t}";
    ]
    (finding_lines
       (Analysis.Sched_lint.lifetimes ~regs:dp.Rtl.Datapath.regs sched));
  let ctrl =
    Rtl.Controller.make dp ~delay
  in
  Alcotest.(check (list string))
    "Rtl_lint.check"
    [
      "error[lint.alu-conflict] ALU 0 runs s and t in overlapping steps {s,t}";
      "error[mem.port-conflict] bank B port 0 runs x and y in overlapping \
       steps {x,y}";
      "error[lint.reg-write-conflict] s and t both latch into reg2 at edge 1 \
       {s,t}";
    ]
    (finding_lines (Analysis.Rtl_lint.check dp ctrl ~delay))

let suite =
  [
    test "schedule: every violation renders as before" schedule_lines;
    test "datapath: overlap, clash and port lines render as before"
      datapath_lines;
  ]
