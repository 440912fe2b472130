(** Value lifetimes over a schedule, in {e register-boundary} units.

    Boundary [t] is the clock edge between control steps [t] and [t+1]. A
    value produced by an operation finishing in step [f] is latched at
    boundary [f]; a consumer starting in step [s] reads it across boundaries
    [f .. s-1]. A value whose consumers all chain combinationally inside the
    producing step never crosses a boundary and needs no register. *)

type interval = {
  value : string;  (** Value name (node name or primary input). *)
  birth : int;  (** First boundary at which the value must be latched. *)
  death : int;  (** Last boundary at which it is still needed. *)
}
(** The value occupies a register exactly when [birth <= death]. *)

val needs_register : interval -> bool

val intervals :
  ?include_inputs:bool -> ?hold_outputs:bool -> Dfg.Graph.t ->
  start:int array -> delay:(int -> int) -> cs:int -> interval list
(** Lifetimes of every value under the given schedule. Primary inputs
    (included by default) are born at boundary 0; values produced by sink
    operations die at boundary [cs] when [hold_outputs] (default) — the
    environment reads results at the end of the iteration. *)

val overlap : interval -> interval -> bool
(** Whether two register-needing intervals share a boundary (cannot share a
    register). *)

val steps_overlap : latency:int option -> int -> int -> int -> int -> bool
(** [steps_overlap ~latency a sa b sb]: do step ranges [a, a+sa-1] and
    [b, b+sb-1] share a cell, folding steps modulo [latency] when functional
    pipelining is active? ([Core.Grid.steps_overlap] re-exports it.) *)

val clash :
  steps_overlap:(int -> int -> int -> int -> bool) -> exclusive:bool ->
  int -> int -> int -> int -> bool
(** [clash ~steps_overlap ~exclusive a sa b sb]: the one sharing rule. Two
    ops occupying steps [a, a+sa-1] and [b, b+sb-1] may not share a unit
    when their cells meet ([steps_overlap], e.g. {!steps_overlap} with the
    latency) and they are not [exclusive] (§5.1); nor when a cell of one
    meets a cell of the other at a different step, because under
    functional pipelining those cells belong to different overlapped
    iterations, whose guards are independent (§5.5.2). MFS's grid (in cell
    form), the schedule audit, MFSA, column binding, port binding and the
    datapath audits all decide sharing with it. *)

val max_overlap : interval list -> int
(** Peak number of simultaneously-live values — the lower bound on register
    count, met exactly by {!Left_edge.allocate}. *)
