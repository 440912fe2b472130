(** Declarative sweep specifications for design-space exploration.

    A spec is a set of {e axes}; their cross product (deduplicated by
    {!Lattice.expand}) is the job lattice one [synth explore] run
    evaluates. The file format is line-oriented:

    {v
    # sweep over the elliptic filter
    graph ewf
    engine mfsa mfs          # mfsa | mfs | list
    style 1 2
    weights 1/1/1/1 1/1/1/20 # w_TIME/w_ALU/w_MUX/w_REG
    cs 17 19 21              # time-constrained points (0 = critical path)
    limits *=1,+=1 *=2,+=2   # resource-constrained points
    library default two-cycle pipelined
    widths on off            # width-aware costing (range analysis) axis
    ports 1 2 declared       # memory bank port override axis
    clock 100                # enable chaining, period in ns
    cse
    budget 8                 # adaptive-refinement point budget
    inject hang 5            # plant a process fault at lattice index 5
    v}

    Repeated directive lines extend the axis; unset axes collapse to a
    singleton default (engine [mfsa], style 1, equal weights, [cs 0],
    library [default]). Malformed lines and values out of their
    {!Harness.Setting} range are [explore.spec] input errors with a
    file:line span. *)

type engine = Harness.Flow.engine = Mfsa | Mfs | List_sched
(** The engine axis ({!Harness.Flow.synthesize}). *)

type library_variant = Harness.Problem.library_variant =
  | Default | Two_cycle | Pipelined
(** The cell-library axis ({!Harness.Problem.make}). *)

type constraint_ = Harness.Flow.constr =
  | Time of int
  | Resource of (string * int) list
(** One point of the merged time/resource axis: a control-step budget
    ([Time 0] = critical-path minimum) or per-class FU limits. *)

type t = {
  graph : string;  (** DFG file or builtin name ({!Batch.Manifest.load_graph}). *)
  engines : engine list;
  styles : Core.Mfsa.style list;
  weights : Core.Mfsa.weights list;
  constraints : constraint_ list;
  libraries : library_variant list;
  widths : bool list;
      (** Width-aware axis: points with [true] run [Analysis.Ranges] and
          price the datapath (and chaining delays) at inferred widths. *)
  ports : int option list;
      (** Memory-port axis: [Some n] overrides every bank's port count
          ({!Core.Config.mem_ports}); [None] keeps the graph's [mem]
          declarations. *)
  clock : float option;  (** Chaining clock period, applied to every point. *)
  cse : bool;  (** Run CSE on the graph before the sweep. *)
  budget : int;  (** Adaptive-refinement point budget (0 = seed lattice only). *)
  inject : (int * Harness.Fault.t) list;
      (** Process faults planted at lattice indices — the explore-smoke
          containment proof. Parse rejects artifact faults. *)
}

val default : graph:string -> t
(** Singleton axes: one MFSA style-1 equal-weights critical-path point. *)

val parse : file:string -> string -> (t, Diag.t) result
val load : string -> (t, Diag.t) result
