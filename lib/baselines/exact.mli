(** Exact time-constrained scheduler by branch and bound.

    Finds a schedule within [cs] steps minimising the total number of
    functional units (optionally weighted per class by unit area). This is
    the "size explosion" class of methods the paper positions MFS against
    (§1: linear-programming formulations [3][9][10][11]): exact, but
    exponential — usable to a few dozen operations, and exactly what is
    needed to measure MFS's optimality gap and to reproduce the paper's
    runtime contrast.

    Supports multi-cycle operations; chaining and mutual-exclusion sharing
    are not modelled (the bound is therefore conservative for guarded
    graphs). *)

type outcome = {
  schedule : Core.Schedule.t;
  optimum : float;
      (** Best objective value found; minimal exactly when [proven]. *)
  explored : int;  (** Search nodes visited (size-explosion witness). *)
  proven : bool;
      (** Whether the search completed within the node budget — only then
          is [optimum] a certified minimum. *)
}

val run :
  ?config:Core.Config.t -> ?unit_weight:(string -> float) ->
  ?node_budget:int -> Dfg.Graph.t -> cs:int -> (outcome, Diag.t) result
(** [unit_weight] defaults to 1 per unit (minimise the unit count);
    [node_budget] (default 5 million) aborts runaway searches rather than
    hanging. Infeasible: [exact.empty-graph], {!Core.Timeframe}'s
    [bounds.*], or [exact.node-budget] when the budget runs out before any
    solution. *)

val min_units :
  ?config:Core.Config.t -> Dfg.Graph.t -> cs:int -> (int, Diag.t) result
(** Just the proven-minimal total unit count; an unproven optimum is an
    infeasible [exact.node-budget]. *)
