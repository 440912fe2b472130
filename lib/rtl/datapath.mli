(** RTL datapath netlists: the output of mixed scheduling-allocation.

    A datapath instantiates ALUs from the cell library, registers produced by
    left-edge allocation, and the two multiplexers in front of every ALU.
    Interconnect sharing (paper §5.7) falls out of source tagging: every
    value read from register [r] enters a multiplexer through the single tag
    [reg r], and every value chained combinationally out of ALU [a] through
    the tag [alu a] — so values sharing a physical line share one mux
    input. *)

type source =
  | From_reg of int  (** Latched value, read from a register. *)
  | From_alu of int  (** Same-step chained value, read from an ALU output. *)
  | From_input of string
      (** Primary input wired directly (only when input registering is
          disabled). *)
  | From_mem of string
      (** The array a memory access reads or writes — the bank interface
          itself, not a routed data value. Always a memory op's first
          source. *)

type alu = {
  a_id : int;
  a_kind : Celllib.Library.alu_kind;
  a_ops : int list;  (** Node ids executed on this instance, by start step. *)
  a_share : Mux_share.t;  (** Port source lists after sharing. *)
}

type mem_port = {
  m_id : int;
      (** Pseudo-unit id, continuing after the ALU ids, so chained reads
          out of a port reuse the [alu<id>] wire tags. *)
  m_bank : string;
  m_port : int;  (** Port index within the bank, from 0. *)
  m_ops : int list;  (** Accesses bound to this port, by start step. *)
}

type t = {
  graph : Dfg.Graph.t;
  start : int array;
  cs : int;
  alus : alu list;
  alu_of : int array;
      (** ALU instance per node id; a memory access holds its bank port's
          pseudo-unit id. *)
  regs : Left_edge.t;  (** Register allocation over value lifetimes. *)
  mems : mem_port list;
      (** Bank ports in use, bound by {!bind_ports} from the schedule. *)
  operand_sources : (int * source list) list;
      (** Resolved operand sources per node, in operand order. *)
}

val bind_ports :
  ?latency:int -> Dfg.Graph.t -> start:int array -> span:(int -> int) ->
  int list -> int list list
(** First-fit port binding of one bank's accesses: in (start, id) order,
    each access joins the first port whose every access is mutually
    exclusive with it or occupies no common step under
    {!Lifetime.steps_overlap} [~latency]. Returns the ports' accesses by
    start step; its length is the ports the bank needs in this schedule. *)

val elaborate :
  ?include_inputs:bool -> ?latency:int -> Dfg.Graph.t -> start:int array ->
  delay:(int -> int) -> cs:int ->
  assignments:(Celllib.Library.alu_kind * int list) list ->
  (t, string) result
(** Build the netlist from a schedule and an op→ALU assignment, binding
    each bank's accesses to ports with {!bind_ports}; [latency] is the
    scheduling configuration's. Errors when an
    assignment references an unknown node, omits or duplicates a node, or
    puts an operation on a unit that cannot execute it. *)

val source_tag : source -> string
(** Stable tag used for multiplexer input sharing. *)

val self_loop_alus : t -> int list
(** ALUs holding an operation together with one of its direct DFG
    predecessors or successors — forbidden under design style 2
    (self-testable structures, §4.2). *)

val mux_count : t -> int
(** Number of multiplexers actually needed (ports with fan-in >= 2). *)

val mux_inputs : t -> int
(** Total data inputs over those multiplexers (Table 2's MUXin). *)

val pp : Format.formatter -> t -> unit
