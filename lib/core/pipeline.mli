(** Functional pipelining / loop folding support (paper §5.5.2).

    The scheduler handles folding through the configuration's
    [functional_latency]: with latency [L], positions [t] and [t + k*L] run
    concurrently (successive loop initiations overlap), so they conflict on
    the same unit. This module adds the paper's DFG-doubling construction
    (used there to derive identical instance schedules) and the derived
    throughput metrics reported in benches. *)

val replicate : copies:int -> Dfg.Graph.t -> (Dfg.Graph.t, Diag.t) result
(** [copies] renamed instances of the graph side by side (suffix [_i<k>]),
    reading disjoint primary inputs — the generalisation of §5.5.2's "new
    DFG consisting of two instances". The instances share no values; the
    overlap in time comes from scheduling, not from dataflow.

    Errors: an [Input] diagnostic when [copies < 1]; an [Internal] one if
    renaming broke an otherwise valid graph (cannot happen for graphs built
    through {!Dfg.Graph.Builder}). *)

val double :
  ?suffixes:string * string -> Dfg.Graph.t -> (Dfg.Graph.t, Diag.t) result
(** {!replicate}[ ~copies:2], with custom instance suffixes. *)

val unfold :
  Schedule.t -> latency:int -> ?instances:int -> unit ->
  (Schedule.t, Diag.t) result
(** Materialise a folded schedule as overlapped loop initiations: instance
    [k] of the body starts [k*latency] steps after instance 0, on the same
    unit columns. The result is an ordinary (unfolded) schedule over
    [cs + (instances-1)*latency] steps whose {!Schedule.check_diags} certifies
    that the modulo-latency folding really is realisable as concurrent
    instances — the property §5.5.2's doubling construction establishes.
    [instances] defaults to enough copies to cover the steady state
    ([ceil(cs/latency) + 1]). Requires a column-bound input schedule. *)

val slot : latency:int -> int -> int
(** Folded resource slot of a control step: [(step-1) mod latency]. *)

val folded_profile : Schedule.t -> latency:int -> (string * int array) list
(** Per FU class, the number of operations active in each of the [latency]
    folded slots — the "balance the distribution of operations across all
    individual control steps" view. *)

val speedup : cs:int -> latency:int -> float
(** Asymptotic throughput gain of folding: one result every [latency] steps
    instead of every [cs]. *)

val min_latency : Dfg.Graph.t -> Config.t -> limits:(string * int) list -> int
(** Resource-bound lower limit on the initiation interval:
    [max_c ceil(N_c * delay_c / units_c)] — no folding can beat it. *)
