(** RTL dataflow verification: reaching definitions over the elaborated
    netlist plus controller, proving every ALU operand is routed from its
    producer through the declared path, and that no two transfers race on
    one bus. All findings are [Internal].

    Codes:

    - [lint.micro-order] — a node with no (or several) micro-orders, or a
      micro issued in a step other than the node's start step;
    - [lint.latch-mismatch] — a micro's latch edge differs from its finish
      step under the delay model, or its destination register differs from
      the allocation (catches [skew-delay]);
    - [lint.alu-conflict] / [mem.port-conflict] — two operations occupy
      one ALU, or one bank port, in overlapping (modulo-latency) step
      ranges without being mutually exclusive ({!Rtl.Check.unit_conflicts});
    - [lint.operand-route] — an operand's declared source does not carry
      the producer's value (wrong register, wrong ALU, wrong input);
    - [lint.operand-not-ready] — a register read before the producer's
      latch edge, or a chained read of a value not produced combinationally
      in the same step;
    - [lint.chain-order] — a same-step chained producer sequenced after its
      consumer in the micro-order list (the wire would read stale data);
    - [lint.reg-clobbered] — another operation overwrites a register
      between a value's latch edge and its last read;
    - [lint.reg-write-conflict] — two non-exclusive micro-orders latch into
      one register at the same clock edge;
    - [lint.mux-route] — an operand's source tag is absent from the ALU's
      shared multiplexer source lists;
    - [lint.bus-range] / [lint.bus-conflict] — a transfer outside the bus
      range, or two same-step transfers on one bus. *)

val check :
  ?bus:Rtl.Bus.t -> ?share_mutex:bool -> ?latency:int -> Rtl.Datapath.t ->
  Rtl.Controller.t -> delay:(int -> int) -> Finding.t list
(** [delay] is the authoritative delay model (the cell library's view);
    disagreements between it and the controller's recorded latch edges are
    findings. [bus] defaults to a fresh {!Rtl.Bus.allocate}; [share_mutex]
    (default true) and [latency] mirror the scheduling configuration.
    [share_mutex] governs ALUs only: bank ports always let exclusive
    accesses share, as {!Rtl.Datapath.bind_ports} binds them. *)
