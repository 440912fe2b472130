type t =
  | Corrupt_start
  | Corrupt_col
  | Corrupt_trace
  | Collide_mem
  | Skew_delay
  | Hang
  | Segv

(* [Collide_mem] is deliberately absent: it only applies to graphs with
   memory accesses, and the fuzz campaigns iterate [all] over array-free
   workloads where it would always report "not applicable". *)
let all = [ Corrupt_start; Corrupt_col; Corrupt_trace; Skew_delay ]
let process = [ Hang; Segv ]
let is_process = function Hang | Segv -> true | _ -> false

let to_string = function
  | Corrupt_start -> "corrupt-start"
  | Corrupt_col -> "corrupt-col"
  | Corrupt_trace -> "corrupt-trace"
  | Collide_mem -> "collide-mem"
  | Skew_delay -> "skew-delay"
  | Hang -> "hang"
  | Segv -> "segv"

let every =
  [ Corrupt_start; Corrupt_col; Corrupt_trace; Collide_mem; Skew_delay; Hang;
    Segv ]

let names = List.map to_string every
let of_string s = List.find_opt (fun f -> String.equal (to_string f) s) every

let hang () =
  let rec spin n = spin (Sys.opaque_identity (n + 1)) in
  spin 0

let segv () =
  Unix.kill (Unix.getpid ()) Sys.sigsegv;
  (* The runtime intercepts SIGSEGV for stack-overflow detection; should
     the signal somehow be swallowed, die loudly anyway. *)
  Unix.kill (Unix.getpid ()) Sys.sigabrt;
  assert false

let crash = function Hang -> hang () | Segv -> segv () | _ -> ()

let corrupt_start s =
  let n = Dfg.Graph.num_nodes s.Core.Schedule.graph in
  if n = 0 then None
  else begin
    (* Push the last operation past the horizon: [finish > cs] is flagged
       by {!Core.Schedule.check} under every option combination (chaining
       and latency folding never relax the horizon). *)
    let start = Array.copy s.Core.Schedule.start in
    start.(n - 1) <- s.Core.Schedule.cs + 1;
    Some { s with Core.Schedule.start }
  end

let corrupt_col s =
  match s.Core.Schedule.col with
  | None -> None
  | Some col ->
      let g = s.Core.Schedule.graph in
      let n = Dfg.Graph.num_nodes g in
      if n = 0 then None
      else begin
        let col = Array.copy col in
        (* Prefer a genuine FU conflict: two same-class ops issued in the
           same step, not mutually exclusive, forced onto one column. *)
        let kind i = (Dfg.Graph.node g i).Dfg.Graph.kind in
        let conflict = ref None in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if
              !conflict = None
              && String.equal
                   (Dfg.Op.fu_class (kind i))
                   (Dfg.Op.fu_class (kind j))
              && s.Core.Schedule.start.(i) = s.Core.Schedule.start.(j)
              && col.(i) <> col.(j)
              && not (Dfg.Graph.mutually_exclusive g i j)
            then conflict := Some (i, j)
          done
        done;
        (match !conflict with
        | Some (i, j) -> col.(j) <- col.(i)
        | None ->
            (* Fall back to an out-of-range binding, also always caught. *)
            col.(n - 1) <- 0);
        Some { s with Core.Schedule.col = Some col }
      end

let collide_mem s =
  let g = s.Core.Schedule.graph in
  (* Two loads of one bank at distinct steps: loads carry no address edges
     between each other, so folding one onto the other breaks only the
     bank's port capacity, never precedence or the horizon. *)
  let loads =
    List.filter
      (fun nd -> nd.Dfg.Graph.kind = Dfg.Op.Load)
      (Dfg.Graph.nodes g)
  in
  let rec pick = function
    | [] -> None
    | nd :: rest -> (
        match
          List.find_opt
            (fun nd' ->
              String.equal
                (Dfg.Graph.node_class g nd)
                (Dfg.Graph.node_class g nd')
              && s.Core.Schedule.start.(nd.Dfg.Graph.id)
                 <> s.Core.Schedule.start.(nd'.Dfg.Graph.id))
            rest
        with
        | Some nd' -> Some (nd.Dfg.Graph.id, nd'.Dfg.Graph.id)
        | None -> pick rest)
  in
  match pick loads with
  | None -> None
  | Some (i, j) ->
      let start = Array.copy s.Core.Schedule.start in
      start.(j) <- start.(i);
      Some { s with Core.Schedule.start }

let corrupt_trace tr =
  match Core.Liapunov.Trace.entries tr with
  | [] -> None
  | e :: rest ->
      (* An energy-increasing first move breaks the monotone-decrease
         Liapunov property the harness asserts on every trace. *)
      let e' =
        { e with Core.Liapunov.Trace.to_value = e.Core.Liapunov.Trace.from_value + 1 }
      in
      Some (Core.Liapunov.Trace.of_entries (e' :: rest))

let skew_delay dp ~delay =
  (* Find an operation whose ALU-mate starts the step after it finishes:
     lengthening the victim's occupancy by one step then provably overlaps
     the mate on the shared instance. *)
  let g = dp.Rtl.Datapath.graph in
  let victim = ref None in
  List.iter
    (fun a ->
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              if
                !victim = None && i <> j
                && dp.Rtl.Datapath.start.(j)
                   = dp.Rtl.Datapath.start.(i) + delay i
                && not (Dfg.Graph.mutually_exclusive g i j)
                && a.Rtl.Datapath.a_kind.Celllib.Library.stages = 1
              then victim := Some i)
            a.Rtl.Datapath.a_ops)
        a.Rtl.Datapath.a_ops)
    dp.Rtl.Datapath.alus;
  match !victim with
  | None -> None
  | Some v -> Some (fun i -> delay i + if i = v then 1 else 0)

let corrupt f sched trace =
  match f with
  | Corrupt_start -> Option.map (fun s -> (s, trace)) (corrupt_start sched)
  | Corrupt_col -> Option.map (fun s -> (s, trace)) (corrupt_col sched)
  | Collide_mem -> Option.map (fun s -> (s, trace)) (collide_mem sched)
  | Corrupt_trace ->
      Option.map (fun tr -> (sched, Some tr)) (Option.bind trace corrupt_trace)
  | Skew_delay | Hang | Segv -> None
