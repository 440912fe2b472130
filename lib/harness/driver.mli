(** The staged pipeline with graceful degradation, shared by the fuzz
    campaign, the batch jobs and [synth compare]: policy over {!Flow}.

    Stages: CSE → pre-gate → schedule (MFS) → fault injection →
    cross-stage invariants → bind (MFSA, under the same time or resource
    constraint) → datapath checks → controller → post-lint → simulation
    vs the golden model. An internal failure in a kernel stage is
    recorded as a violation and the stage degrades to a baseline (list
    scheduling + column packing for MFS, column-packed single-function
    binding for MFSA), so one defect never hides what the rest of the
    pipeline would have found. Expected rejections — infeasible budgets,
    malformed input — stop the run with [stopped] set and are not
    violations. The driver sets no time limit: a stage that hangs is
    ended by the batch pool's wall-clock watchdog ({!Batch.Pool}). *)

type options = {
  constr : Flow.constr;
      (** A step budget ([Time 0] is the critical path), or unit caps:
          MFS and MFSA then run resource-constrained. *)
  library : Problem.library_variant;
  style : Core.Mfsa.style;
  latency : int option;
  clock : float option;
  cse : bool;
  widths : bool;
      (** Width-aware mode: run [Analysis.Ranges], feed width-scaled
          per-node delays to the chaining probes, and add a
          narrowing-safety simulation ({!Flow.simulate}) to the
          random-equivalence stage. *)
  baseline_only : bool;
      (** Skip the MFS/MFSA primaries and run the degradation chain
          directly (list scheduling + column packing, column-packed
          single-function binding). Used by the batch {!Retry} policy to
          re-run a timed-out job on cheaper engines; [sched_via] /
          [bind_via] report [Fallback] without recording a violation. *)
}

val default_options : options

val options_to_flags : options -> string
(** Render as [synth] flags (reproducer headers, manifest lines): the
    budget or one [--limit 'CLASS=COUNT'] per cap in order, then latency,
    clock, style, multiplier, [--cse], [--widths], [--baseline-only];
    values in their {!Setting} text form. *)

val options_of_flags :
  fail:(string -> Diag.t) -> string list -> (options, Diag.t) result
(** The inverse over a manifest line's words, in any order; it reads
    back exactly what {!options_to_flags} prints. [--steps] and [--chain]
    are aliases, caps win over a [--cs] ({!Flow.constr}) and both
    multiplier flags mean the pipelined unit. A malformed or
    out-of-range value, a missing value or an unknown flag is
    [Error (fail message)]. *)

type via = Primary | Fallback of string

type outcome = {
  schedule : Core.Schedule.t option;
  sched_via : via;
  bind_via : via option;  (** [None] when binding was never reached. *)
  stopped : Diag.t option;
      (** Expected early stop (infeasible / bad input); never a bug. *)
  violations : Diag.t list;
      (** Internal diagnostics and invariant breaches — the defects. *)
  fault_applied : bool;
}

val run : ?fault:Fault.t -> ?options:options -> Dfg.Graph.t -> outcome
(** Drive one graph through the pipeline; the simulation stages draw 5
    random input vectors each. Never raises by design; the fuzz layer
    still guards against escapes and classifies them as crashes. *)

val colbind_datapath :
  Celllib.Library.t -> Core.Config.t -> Dfg.Graph.t -> Core.Schedule.t ->
  (Rtl.Datapath.t, string) result
(** {!Problem.colbind_datapath} with the diagnostic's message, kept under
    this name and type for the benchmark harness that calls it. *)
