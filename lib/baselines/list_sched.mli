(** List scheduling baselines (the class of algorithms MFS is compared
    against, paper §1: Slicer [4] and conditional deferment [3]).

    Priority is the delay-weighted longest path to a sink (critical-path
    priority); ready operations are issued in priority order onto free
    units. *)

val priority : Core.Config.t -> Dfg.Graph.t -> int -> int
(** Longest delay-weighted path from the node to any sink (inclusive). *)

val resource :
  ?config:Core.Config.t -> Dfg.Graph.t -> limits:(string * int) list ->
  (Core.Schedule.t, Diag.t) result
(** Resource-constrained: minimise steps with at most [limits] units per
    class (classes absent from [limits] get one unit). A memory bank's
    access class gets no more units than the bank has ports
    ({!Core.Config.mem_limits}). Every rejection is infeasible:
    [list.empty-graph], or [list.units] for a cap below 1. *)

val time :
  ?config:Core.Config.t -> Dfg.Graph.t -> cs:int ->
  (Core.Schedule.t, Diag.t) result
(** Time-constrained by conditional deferment: start from the uniform
    lower bound [ceil(N_c/cs)] units per class and raise the limit of
    whichever class first misses a deadline, until the budget is met. A
    memory bank's ports are a hard cap: a bank's access class never grows
    past them. Every rejection is infeasible: [list.empty-graph],
    {!Core.Timeframe}'s [bounds.*] for a budget below the critical path,
    [list.ports] when only bank accesses at their port cap miss the
    budget, [list.units] for a bank without ports, or [list.deferment]. *)
