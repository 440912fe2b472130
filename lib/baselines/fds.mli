(** Force-directed scheduling (Paulin & Knight, HAL [6]) — the
    time-constrained baseline the paper's Table 2 comparison references.

    Each unscheduled operation is distributed uniformly over its time frame;
    per-class distribution graphs sum those probabilities per step. The
    algorithm repeatedly commits the (operation, step) assignment with the
    lowest total force — self force plus the force change induced in direct
    predecessors/successors whose frames shrink — then recomputes frames. *)

val distribution :
  Core.Config.t -> Dfg.Graph.t -> Dfg.Bounds.t -> string ->
  float array
(** Distribution graph of one FU class over steps 1..cs (index 0 unused). *)

val run :
  ?config:Core.Config.t -> Dfg.Graph.t -> cs:int ->
  (Core.Schedule.t, Diag.t) result
(** Schedule within [cs] steps, minimising peak per-class concurrency.
    Infeasible: [fds.empty-graph], or {!Core.Timeframe}'s [bounds.*].
    A search that finds no assignment inside feasible frames is an
    [fds.internal] defect. *)
