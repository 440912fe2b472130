(** One synthesis problem: a DFG, its cell library and the derived
    scheduling configuration, set up once for every front end (the CLI,
    {!Driver}, the explore lattice and the serve daemon).

    MFS, MFSA and the baseline engines are algorithms over this value;
    {!Flow} is the one place that picks the engine call for a constraint
    and runs the audits with the problem's settings. *)

type library_variant = Default | Two_cycle | Pipelined
(** The NCR library restricted to the graph's operation kinds, and its
    two-cycle / pipelined multiplier variants (paper §5.3, §5.5.1). *)

val library_of_flags : two_cycle:bool -> pipelined:bool -> library_variant
(** The CLI's [--two-cycle-mult] / [--pipelined-mult] pair; pipelined
    wins when both are set. *)

type t = {
  graph : Dfg.Graph.t;
  library : Celllib.Library.t;
  config : Core.Config.t;
      (** Delays and pipelining from [library], plus chaining at [clock],
          functional latency, the bank-port override and, in width-aware
          mode, width-scaled per-node delays. *)
  facts : Analysis.Ranges.t option;  (** Range facts, in width-aware mode. *)
}

val make :
  ?library:library_variant -> ?clock:float -> ?latency:int -> ?ports:int ->
  ?widths:bool -> Dfg.Graph.t -> t
(** [library] defaults to [Default]; no [clock] means no chaining, no
    [latency] no functional pipelining, and no [ports] keeps the graph's
    [mem] declarations; [widths] (default [false]) runs the range
    analysis. *)

val cs : t -> int -> int
(** The requested time budget, or the critical-path minimum when it is
    [<= 0]. *)

val delay : t -> int -> int
(** Execution steps of node [i] under the problem's configuration. *)

val widths : t -> (string -> int) option
(** Inferred bit width per value name, in width-aware mode. *)

val colbind_datapath :
  Celllib.Library.t -> Core.Config.t -> Dfg.Graph.t -> Core.Schedule.t ->
  (Rtl.Datapath.t, Diag.t) result
(** Column-packed binding: every (kind, column) pair of the schedule's FU
    columns becomes one single-function ALU instance, and memory accesses
    go to their bank's ports. The MFSA fallback of {!Driver}, and how
    {!Flow.synthesize} binds the MFS and list schedules.
    A binding {!Rtl.Datapath.elaborate} rejects is its internal
    [datapath.invalid] error. *)
