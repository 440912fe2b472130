(** Simulated-annealing scheduler (the stochastic baseline the paper
    contrasts with: "probabilistic exploration and tuning problems in some
    energy-based approaches such as annealing", §1 and [8]).

    State: a start-step assignment within the ASAP/ALAP frames. Moves pick
    an operation and shift it one step inside its dependency-respecting
    window. Cost: per-class unit counts weighted by unit area, plus the
    register lower bound. Deterministic: fixed seed, geometric cooling. *)

type params = {
  seed : int;
  initial_temp : float;
  cooling : float;  (** Geometric factor per sweep, in (0,1). *)
  sweeps : int;  (** Each sweep attempts [ops] moves. *)
}

val default_params : params
(** seed 1, T0 = 50, cooling 0.95, 150 sweeps. *)

val cost :
  ?unit_area:(string -> float) -> Core.Config.t -> Dfg.Graph.t ->
  start:int array -> cs:int -> float
(** The annealer's objective on a given assignment (exposed for tests). *)

val run :
  ?config:Core.Config.t -> ?params:params ->
  ?unit_area:(string -> float) -> Dfg.Graph.t -> cs:int ->
  (Core.Schedule.t, Diag.t) result
(** Anneal within [cs] steps. Infeasible: [annealing.empty-graph], or
    {!Core.Timeframe}'s [bounds.*]. *)
