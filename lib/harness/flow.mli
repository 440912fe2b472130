(** The synthesis flow over one {!Problem.t}: which engine call runs for
    an engine and a constraint, how the engines that only schedule are
    bound, and the audits of what comes out, each with the problem's
    functional latency, mutex sharing, delays and inferred widths.

    Every front end runs the engines and audits through this module: the
    CLI, {!Driver} and the explore lattice (and through it the daemon and
    the cluster workers). Each keeps only its policy: what to print, what
    to degrade to, what counts as a violation. *)

type engine = Mfsa | Mfs | List_sched

type constr = Time of int | Resource of (string * int) list
(** A control-step budget ([Time 0] is the critical-path minimum), or
    per-class unit caps ({!Dfg.Op.fu_class} keys): the time- and
    resource-constrained regimes of the paper (§3.1). *)

val constr : cs:int -> limits:(string * int) list -> constr
(** Resource-constrained when [limits] is non-empty, as with [--limit]. *)

val pre :
  Problem.t -> constr -> Analysis.Finding.t list * (string * float) list
(** The static pre-gate on the problem's graph: DFG lint, feasibility
    bounds (against the budget, or only the unit caps when
    resource-constrained) and the width analysis; with each pass's
    wall-clock time in milliseconds ({!Analysis.Runner.pre_timed}). *)

val schedule :
  Problem.t -> engine -> constr ->
  (Core.Schedule.t * Core.Liapunov.Trace.t option, Diag.t) result
(** Schedule only: MFS (with its Liapunov trace) or list scheduling, in
    the constraint's regime. A list schedule carries no FU columns.
    [Mfsa] is {!synthesize}'s schedule at MFSA's default style and
    weights. *)

type design = {
  schedule : Core.Schedule.t;
  trace : Core.Liapunov.Trace.t option;  (** MFS's, when MFS scheduled. *)
  datapath : Rtl.Datapath.t;
  cost : Rtl.Cost.breakdown;
      (** Priced at the problem's inferred widths in width-aware mode, at
          the full word otherwise. *)
}

val synthesize :
  ?style:Core.Mfsa.style -> ?weights:Core.Mfsa.weights -> Problem.t ->
  engine -> constr -> (design, Diag.t) result
(** Schedule and bind. MFSA does both itself ({!Core.Mfsa.run}, or
    {!Core.Mfsa.run_resource} under caps); an MFS or list schedule is
    bound by {!Problem.colbind_datapath}. Errors keep the engine's code
    and category; a binding {!Rtl.Datapath.elaborate} rejects is
    internal. *)

val check :
  ?delay:(int -> int) -> style2:bool -> Problem.t -> Rtl.Datapath.t ->
  (unit, Diag.t list) result
(** {!Rtl.Check.datapath} with the problem's mutex sharing and the
    overlap rule of its functional latency. [delay] (default
    {!Problem.delay}) replaces the delay model the checker sees. *)

val post_rtl :
  ?delay:(int -> int) -> Problem.t -> Rtl.Datapath.t -> Rtl.Controller.t ->
  Analysis.Finding.t list
(** The static RTL audits ({!Analysis.Runner.post_rtl}) with the problem's
    mutex sharing and functional latency. *)

val simulate :
  ?runs:int -> Problem.t -> Rtl.Datapath.t -> Rtl.Controller.t ->
  (unit, Diag.t) result * (unit, Diag.t) result option
(** Random equivalence against the golden model
    ({!Sim.Equiv.check_random}), and in width-aware mode narrowing safety
    at the inferred widths ({!Sim.Equiv.check_narrowing}); [runs] is the
    fuel of each (their defaults when absent). *)
