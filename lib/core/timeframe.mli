(** Configuration-aware time frames: picks plain or chaining-aware ASAP/ALAP
    depending on the options. Shared by MFS, MFSA and the baselines. *)

val step_admissible :
  Config.t -> Dfg.Graph.t -> start:int array -> offset:float array -> int ->
  int -> float option
(** [step_admissible cfg g ~start ~offset i s] decides whether operation [i]
    may start in step [s] given its already-placed predecessors, honouring
    multi-cycle finishes and — under chaining — intra-step offsets. Returns
    the operation's own start offset within the step, or [None]. *)

val bounds : Config.t -> Dfg.Graph.t -> cs:int -> (Dfg.Bounds.t, Diag.t) result
(** Frames within [cs] steps; under chaining the step components of the
    chained frames. Fails with {!Dfg.Bounds}' infeasible diagnostics. *)

val min_cs : Config.t -> Dfg.Graph.t -> int
(** Smallest feasible time budget under the configuration. *)
