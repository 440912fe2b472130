(** Move Frame Scheduling-Allocation (paper §4).

    MFSA extends the MFS move mechanism: the columns of the placement table
    become ALU instances drawn from a cell library, and the static energy is
    replaced by the dynamic composite Liapunov function

    [f = w_TIME*f_TIME + w_ALU*f_ALU + w_MUX*f_MUX + w_REG*f_REG]

    evaluated per candidate (step, ALU) pair on the partially constructed
    design: [f_TIME = C*step] with [C] large enough that an earlier step
    always wins; [f_ALU] is the incremental ALU area (zero for an existing
    instance, the area difference for widening an instance to a multifunction
    kind, the full area for a fresh instance); [f_MUX] the multiplexer-area
    delta after best input sharing (§5.6) with interconnect-aware source
    tags (§5.7); [f_REG] the register-count delta of the left-edge
    allocation over the partial lifetimes (§5.8).

    Note on multifunction units: the paper leaves open when a multifunction
    kind is ever instantiated under a purely greedy energy (a fresh
    single-function unit is always cheaper than a fresh multifunction one).
    We follow the incremental-cost reading: a candidate may {e widen} an
    existing instance to the cheapest library kind covering its current
    capability set plus the new operation, paying only the area difference —
    which is what makes the Table-2 style multifunction ALUs emerge. *)

type style =
  | Unrestricted  (** Design style 1: any RTL structure. *)
  | No_self_loop
      (** Design style 2: an operation never shares an ALU with a direct DFG
          predecessor or successor (self-testable structures, SYNTEST). *)

type weights = {
  w_time : float;
  w_alu : float;
  w_mux : float;
  w_reg : float;
}

val equal_weights : weights
(** All ones — the paper's "overall optimizer". *)

type iteration = {
  it_node : int;  (** Operation placed in this iteration. *)
  it_step : int;
  it_alu : int;  (** ALU instance id chosen. *)
  it_fresh : bool;  (** Whether a new instance was created. *)
  it_widened : bool;  (** Whether an existing instance was widened. *)
  it_energy : float;  (** Chosen candidate's energy. *)
  it_worst : float;  (** Worst admissible candidate's energy. *)
}

type outcome = {
  schedule : Schedule.t;
  datapath : Rtl.Datapath.t;
  cost : Rtl.Cost.breakdown;
  iterations : iteration list;  (** In placement order. *)
  style : style;
}

val run :
  ?config:Config.t -> ?style:style -> ?weights:weights ->
  library:Celllib.Library.t -> cs:int -> Dfg.Graph.t ->
  (outcome, Diag.t) result
(** Schedule and allocate within [cs] control steps. The configuration's
    delay/pipelining functions are normally {!Config.of_library}. Errors:
    infeasible budget, no capable ALU kind for some operation, or a style-2
    deadlock (an operation whose every admissible position violates the
    self-loop rule). *)

val run_resource :
  ?config:Config.t -> ?style:style -> ?weights:weights ->
  library:Celllib.Library.t -> limits:(string * int) list -> Dfg.Graph.t ->
  (outcome, Diag.t) result
(** Resource-constrained MFSA: at most [limits] ALU instances capable of
    each single-function class ({!Dfg.Op.fu_class} keys; absent classes are
    unconstrained), minimising control steps first and datapath cost second
    — the [V = cs*x + y] regime of §3.1 carried over to allocation: the
    energy's time term becomes a tie-break and the incremental-cost terms
    dominate. The returned schedule's [cs] is the achieved makespan.
    A search that passes the serial horizon is infeasible: under style 2
    it is [mfsa.style2-deadlock] when style 1 binds at the horizon under
    the same caps, and [mfsa.horizon] otherwise. *)
