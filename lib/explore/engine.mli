(** The design-space exploration engine.

    Expands a {!Spec.t} into its job lattice, evaluates every point not
    already in the content-addressed {!Cache} through {!Batch.Pool}
    (inheriting its watchdogs, verdict lattice, journal and resume), folds
    the results into a {!Pareto} front over (control steps, ALU area, MUX
    area, registers), then runs budgeted {!Refine} rounds to densify the
    frontier. Completed verdicts — solved metrics {e and} expected
    infeasibilities — are appended to the cache; failures never are. *)

type source = Evaluated | Cached

type status =
  | Solved of Lattice.metrics
  | Infeasible of string
      (** Expected rejection (budget below critical path, limits too
          tight); the rejecting diagnostic's code. Not a failure: such
          points simply contribute nothing to the front. *)
  | Failed of string
      (** Timeout / OOM / crash / internal error — makes the sweep
          partial (exit 6 at the CLI). *)

type eval = {
  e_point : Lattice.point;
  e_key : string;  (** Content key = cache key = journal id. *)
  e_status : status;
  e_source : source;
}

type outcome = {
  evals : eval list;  (** Lattice order, refined points appended. *)
  seed_points : int;
  refined_points : int;
  cache_hits : int;
  fresh : int;  (** Fresh worker evaluations this run. *)
  resumed : int;  (** Verdicts replayed from the journal. *)
  interrupted : bool;  (** SIGINT/SIGTERM; in-flight points have no eval. *)
}

val solved : outcome -> (Lattice.point * Lattice.metrics) list
val failures : outcome -> (Lattice.point * string) list

val front : outcome -> (Lattice.point * Lattice.metrics) list
(** Non-dominated solved points under {!Lattice.objectives}, sorted by
    objective vector. *)

val front_indices : outcome -> (int, unit) Hashtbl.t
(** Point indices of the front members, for report row marking. *)

val status_of_verdict : Batch.Verdict.t -> status
(** How a point's verdict reads: a metrics payload is [Solved], an
    infeasible or input rejection [Infeasible], anything else [Failed]. *)

val record :
  Cache.t -> Cache.writer option -> log:(string -> unit) -> key:string ->
  descr:string -> status -> unit
(** The one cache policy, shared with the serve daemon: a [Solved] or
    [Infeasible] status is inserted into the cache, then appended to the
    writer (a failed append is logged). [Failed] is never cached — it
    may be environmental and must re-run. *)

type runner =
  deadline:float ->
  (Batch.Pool.job * Batch.Jsonl.t) list ->
  (Batch.Pool.outcome, Diag.t) result
(** How a batch of cache-miss points is executed: each element pairs the
    locally-runnable {!Batch.Pool.job} with its {!Lattice.wire} document
    for remote leasing. The default runner is {!Batch.Pool.run}; the CLI
    injects a cluster dispatcher when [--hosts] is given. *)

val run :
  ?workers:int ->
  ?cache:string ->
  ?journal:string ->
  ?resume:bool ->
  ?deadline:float ->
  ?budget:int ->
  ?log:(string -> unit) ->
  ?runner:runner ->
  Spec.t ->
  (outcome, Diag.t) result
(** Run the sweep. [cache] is the JSONL store path (loaded before, new
    completions appended); [journal]/[resume]/[deadline]/[workers] are
    passed through to {!Batch.Pool.run} (retry policy {!Batch.Retry.none}
    — sweep points are deterministic, a timeout is a verdict, not a
    straggler). [budget] overrides the spec's refinement budget. [Error]
    is reserved for environment problems (unloadable graph or spec,
    corrupt cache or journal); point failures are data — see
    {!failures}. *)
