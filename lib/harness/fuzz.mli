(** Randomized robustness campaigns over the synthesis pipeline.

    Each run draws a DAG from {!Workloads.Random_dag} and a point of the
    option space (budgets, limits, chaining clock, functional latency,
    multiplier models, design style, CSE), drives it through
    {!Driver.run}, and classifies the result: clean, expected
    infeasibility, degraded-but-clean, or a failure (crash, invariant
    violation, or a missed injected fault). Failures are shrunk to a
    minimal reproducer and, when a corpus directory is given, written as
    a [.dfg] file whose header comments carry the [synth] flags.

    Everything is deterministic in [seed] — reruns reproduce byte-for-byte
    the same campaign. *)

type case = {
  inputs : string list;
  rows : (string * Dfg.Op.kind * string list * (string * bool) list) list;
  options : Driver.options;
}

val graph_of_case : case -> (Dfg.Graph.t, Diag.t) result
val case_of_graph : Driver.options -> Dfg.Graph.t -> case
val case_size : case -> int

type verdict =
  | Clean of Driver.outcome
  | Stopped of Diag.t  (** Expected infeasibility / bad input. *)
  | Skipped  (** Fault injection not applicable to this case. *)
  | Failed of string * string  (** Classification key, human detail. *)

val run_case : ?fault:Fault.t -> case -> verdict

val shrink :
  oracle:(case -> bool) -> max_attempts:int -> case -> case
(** Greedy minimisation: drop rows (patching references so the case stays
    valid) and simplify options, keeping every step the oracle accepts. *)

val write_reproducer :
  dir:string -> seed:int -> kind:string -> ?fault:Fault.t -> case -> string
(** Write the case to [dir/<kind>-seed<N>.dfg] (creating [dir]) and
    return the path. *)

type failure = {
  f_kind : string;  (** Stable classification key. *)
  f_seed : int;
  f_detail : string;
  f_size : int;
      (** Operations left in the shrunk reproducer (the case itself lives
          in the corpus file when one was written). *)
  f_file : string option;  (** Corpus path, when a corpus dir was given. *)
}

type report = {
  runs : int;
  clean : int;
  infeasible : int;
  degraded : int;  (** Clean runs that needed a fallback stage. *)
  skipped : int;
  failures : failure list;
}

(** {2 Decomposed campaign}

    A campaign is [cases] (all the randomness, drawn sequentially up
    front) → [execute] per case (deterministic in the case and its seed;
    safe to fan out over {!Batch.Pool} workers) → [report_of_classified]
    (aggregation in run order, so the summary is independent of worker
    completion order). {!campaign} is the sequential composition. *)

type generated = {
  g_run : int;  (** 1-based run index. *)
  g_seed : int;  (** Per-case seed, also the journal ordering key. *)
  g_case : (case, Diag.t) result;
      (** [Error] when the DAG generator itself rejected the spec — a
          campaign failure, classified as [crash:generator]. *)
}

val cases : ?max_ops:int -> runs:int -> seed:int -> unit -> generated list

type classified =
  | C_clean of { c_degraded : bool }
  | C_stopped of string  (** Diagnostic code of the expected stop. *)
  | C_skipped
  | C_failed of failure

val execute : ?fault:Fault.t -> ?corpus_dir:string -> generated -> classified
(** Run, classify, shrink failures, write the corpus reproducer. *)

val report_of_classified : classified list -> report
(** Fold in run order; [runs] is the list length. *)

val campaign :
  ?fault:Fault.t -> ?corpus_dir:string -> ?max_ops:int ->
  ?log:(string -> unit) -> runs:int -> seed:int -> unit -> report

val render_report : report -> string
