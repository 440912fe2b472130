(** Cycle-accurate execution of an elaborated datapath under its FSM
    controller — the substrate standing in for the authors' silicon: it
    checks end-to-end that a synthesised design computes what the behaviour
    says (register sharing, multiplexing, chaining, multi-cycle latching and
    guarded execution included).

    Semantics per control step: operand reads see the registers as of the
    step's opening edge (or same-step ALU outputs for chained operands);
    results latch at the closing edge of their finish step. Micro-orders
    whose guards are unsatisfied are skipped and write nothing. *)

type run_result = {
  values : (string * int) list;
      (** Value computed per executed node (inactive guarded nodes absent). *)
  final_regs : int option array;  (** Register file after the last step. *)
  trace : step_snapshot list;
      (** One snapshot per control step, in step order. *)
}

and step_snapshot = {
  snap_step : int;
  snap_regs : int option array;  (** Register file {e after} the step's edge. *)
  snap_wires : (int * int) list;  (** Live ALU outputs during the step. *)
}

val truncate : width:int -> int -> int
(** Two's-complement truncation to [width] bits; identity at 63 or more. *)

val run :
  ?widths:(string -> int) -> Rtl.Datapath.t -> Rtl.Controller.t ->
  env:Eval.env -> (run_result, Diag.t) result
(** Execute one iteration. Reads of never-written registers or wires are
    [sim.machine] internal errors — which is how binding bugs (register
    clashes, broken chaining) surface in tests.

    [widths] maps a value name to its inferred bit width; when given, the
    machine models a width-annotated datapath: inputs and every ALU output
    are truncated ({!truncate}) to their inferred widths, exactly as buses
    of that size would behave. If the widths are sound, no truncation ever
    changes a value. *)
