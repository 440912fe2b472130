(** Staged pipeline driver with graceful degradation, shared by the fuzz
    campaign and the CLI.

    Stages: CSE → schedule (MFS) → fault injection → cross-stage
    invariants → bind (MFSA) → datapath checks → controller → simulation
    vs the golden model. Each stage is wall-clock timed against a budget;
    an internal failure in a kernel stage is recorded as a violation and
    the stage degrades to a baseline ({!Baselines.List_sched} + column
    packing for MFS, column-packed single-function binding for MFSA), so
    one defect never hides what the rest of the pipeline would have
    found. Expected rejections — infeasible budgets, malformed input —
    stop the run with [stopped] set and are not violations. *)

type options = {
  cs : int;  (** Time budget; [<= 0] means the critical-path minimum. *)
  limits : (string * int) list;
      (** Resource-constrained MFS when non-empty. *)
  two_cycle : bool;
  pipelined : bool;
  latency : int option;
  clock : float option;
  style2 : bool;
  cse : bool;
  widths : bool;
      (** Width-aware mode: run [Analysis.Ranges], feed width-scaled
          per-node delays to the chaining probes, and add a
          narrowing-safety simulation stage ([Sim.Equiv.check_narrowing])
          after the random-equivalence stage. *)
  baseline_only : bool;
      (** Skip the MFS/MFSA primaries and run the degradation chain
          directly (list scheduling + column packing, column-packed
          single-function binding). Used by the batch {!Retry} policy to
          re-run a timed-out job on cheaper engines; [sched_via] /
          [bind_via] report [Fallback] without recording a violation. *)
}

val default_options : options

val options_to_flags : options -> string
(** Render as [synth] command-line flags, for reproducer corpus entries. *)

type budgets = {
  stage_seconds : float;
      (** Wall-clock budget per stage. {b Advisory}: the driver measures
          each stage {e after it returns} and merely sets
          {!stage_report.over_budget} post-hoc — a stage stuck in an
          infinite loop is never preempted in-process. Hard enforcement
          is the batch layer's job: run the driver under {!Batch.Pool},
          whose per-job wall-clock watchdog SIGKILLs the worker at its
          deadline (verdict [Timeout]). *)
  sim_runs : int;  (** Fuel for the random-equivalence stage. *)
}

val default_budgets : budgets

type via = Primary | Fallback of string

type stage_report = {
  stage : string;
  seconds : float;
  over_budget : bool;
      (** Post-hoc record that [seconds] exceeded
          {!budgets.stage_seconds}; nothing was interrupted. See the
          advisory note on {!budgets}. *)
  note : string;
}

type outcome = {
  schedule : Core.Schedule.t option;
  sched_via : via;
  bind_via : via option;  (** [None] when binding was never reached. *)
  stopped : Diag.t option;
      (** Expected early stop (infeasible / bad input); never a bug. *)
  violations : Diag.t list;
      (** Internal diagnostics and invariant breaches — the defects. *)
  fault_applied : bool;
  stages : stage_report list;  (** In execution order. *)
}

val run :
  ?fault:Fault.t -> ?budgets:budgets -> ?options:options -> Dfg.Graph.t ->
  outcome
(** Drive one graph through the pipeline. Never raises by design; the
    fuzz layer still guards against escapes and classifies them as
    crashes. *)

val colbind_datapath :
  Celllib.Library.t -> Core.Config.t -> Dfg.Graph.t -> Core.Schedule.t ->
  (Rtl.Datapath.t, string) result
(** {!Problem.colbind_datapath} with the diagnostic's message, kept under
    this name and type for the benchmark harness that calls it. *)
