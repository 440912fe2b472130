(** ASAP/ALAP time frames, mobilities and concurrency profiles (paper §3.2
    step 1 and §5.4's chaining-aware variant).

    Control steps are 1-based, matching the paper's placement tables. An
    operation with delay [d] scheduled at step [s] occupies steps
    [s .. s+d-1]; its result is available from step [s+d] on. *)

type delays = Op.kind -> int
(** Cycle count per operation kind (>= 1). *)

val unit_delays : delays
(** Every operation takes one control step. *)

type t = {
  asap : int array;  (** Earliest start step per node id. *)
  alap : int array;  (** Latest start step per node id. *)
  cs : int;  (** The time budget the frames were computed against. *)
}

val compute : ?delays:delays -> Graph.t -> cs:int -> (t, Diag.t) result
(** Time frames within [cs] control steps. Infeasible when [cs < 1]
    ([bounds.budget]) or when the critical path exceeds [cs]
    ([bounds.infeasible-budget]). *)

val critical_path : ?delays:delays -> Graph.t -> int
(** Smallest feasible number of control steps (length of the longest
    delay-weighted path). 0 for the empty graph. *)

val mobility : t -> int -> int
(** [alap - asap] of a node — the paper's mob[Oi]. *)

val concurrency : ?delays:delays -> Graph.t -> start:int array -> cs:int ->
  (string * int) list
(** Peak number of simultaneously-active operations per FU class when every
    node [i] starts at [start.(i)]. Used to derive the default [max_j]
    resource upper bounds from the ASAP and ALAP schedules. *)

(** {1 Chaining}

    With chaining (paper §5.4), several data-dependent combinational
    operations may share one control step provided their accumulated
    propagation delay fits in the clock period [clock]. Frames then track a
    start step plus an intra-step time offset. *)

type chained = {
  ch_asap : (int * float) array;  (** (step, start offset in ns) per node. *)
  ch_alap : (int * float) array;
  ch_cs : int;
}

val compute_chained :
  ?delays:delays -> ?node_prop:(Graph.node -> float option) ->
  prop_delay:(Op.kind -> float) -> clock:float ->
  Graph.t -> cs:int -> (chained, Diag.t) result
(** Chaining-aware frames. Each 1-cycle operation must individually fit in
    the clock period (infeasible [bounds.chain-clock] otherwise), and the
    chained critical path must fit [cs] ([bounds.infeasible-budget]). With [delays], multi-cycle operations occupy their full
    span and never chain — their edges register the value, available at
    offset 0 of the following step. [node_prop] overrides the per-kind
    propagation delay for individual nodes (width-scaled delays). *)

val chained_critical_path :
  ?delays:delays -> ?node_prop:(Graph.node -> float option) ->
  prop_delay:(Op.kind -> float) -> clock:float ->
  Graph.t -> (int, Diag.t) result
(** Minimum step count with chaining (and multi-cycle [delays]); fails
    like {!compute_chained} when an operation is slower than the clock. *)
