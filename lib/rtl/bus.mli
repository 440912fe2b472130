(** Bus-based interconnect (the paper's "optimizing multiplexers (or
    buses)", §4.1): instead of two private multiplexers per ALU, operands
    travel over a small set of shared buses; the number of buses is the peak
    number of simultaneous register/input-to-ALU transfers in any control
    step (chained ALU-to-ALU operands stay on direct wires).

    This gives the designer the classic MUX-vs-bus trade-off: few busy
    steps favour buses, wide parallel steps favour multiplexers. *)

type transfer = {
  t_node : int;  (** Consuming operation. *)
  t_operand : int;  (** Operand index (0-based). *)
  t_step : int;  (** Control step of the read. *)
  t_bus : int;  (** Assigned bus (0-based). *)
  t_source : Datapath.source;
}

type t = {
  buses : int;  (** Buses needed: the peak per-step transfer count. *)
  transfers : transfer list;
  per_step : int array;  (** Transfer count per step (index 1..cs). *)
}

val allocate : Datapath.t -> t
(** Assign every non-chained operand read to a bus, round-robin within each
    step. Two transfers in one step never share a bus. *)

val cost : ?bus_area:float -> ?tap_area:float -> t -> float
(** Interconnect area: [buses * bus_area] plus one tap per distinct
    (source, bus) connection. Defaults: 900 and 60 µm². *)

val check_diags : t -> Diag.t list
(** No two same-step transfers share a bus ([bus.conflict]), and every bus
    index is within range ([bus.range]) — the invariant tests rely on.
    Typed internal diagnostics. *)
