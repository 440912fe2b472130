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
    class (classes absent from [limits] get one unit). Every rejection is
    infeasible: [list.empty-graph], or [list.units] for a cap below 1. *)

val time :
  ?config:Core.Config.t -> Dfg.Graph.t -> cs:int ->
  (Core.Schedule.t, Diag.t) result
(** Time-constrained by conditional deferment: start from the uniform
    lower bound [ceil(N_c/cs)] units per class and raise the limit of
    whichever class first misses a deadline, until the budget is met.
    Every rejection is infeasible: [list.empty-graph], {!Core.Timeframe}'s
    [bounds.*] for a budget below the critical path, or [list.deferment]. *)
