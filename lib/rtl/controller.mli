(** Control-path generation: the FSM that sequences a datapath through its
    control steps (the "control path design" step of behavioural synthesis,
    paper §1).

    Each state issues one micro-order per operation starting in that step:
    which ALU computes, which sources feed its ports, which register latches
    the result at the step's closing edge, and under which guard the order is
    enabled at all. *)

type micro = {
  m_step : int;  (** FSM state (= control step), 1-based. *)
  m_latch_step : int;
      (** State whose closing edge latches the result — the finish step of a
          multi-cycle operation. *)
  m_node : int;  (** DFG node id executed. *)
  m_alu : int;  (** ALU instance id. *)
  m_sources : Datapath.source list;  (** Operand sources, in operand order. *)
  m_dest : int option;
      (** Register latching the result at the {e finish} step's edge;
          [None] when every consumer chains inside the producing step. *)
  m_guards : (string * bool) list;  (** Enabling condition values. *)
}

type t = {
  steps : int;  (** Number of FSM states. *)
  micros : micro list;  (** Sorted by step, then by chaining depth. *)
  input_loads : (string * int) list;
      (** Registers to preload with primary inputs before state 1. *)
}

val make : Datapath.t -> delay:(int -> int) -> t
(** Derive the controller from an elaborated datapath; it cannot fail.
    Micro-orders within a step are emitted in chaining order (producers
    before same-step consumers), which the simulator relies on. *)

val generate : Datapath.t -> delay:(int -> int) -> (t, string) result
(** {!make}, always [Ok], for callers that take a result. *)

val pp : Format.formatter -> t -> unit
