(** Static analysis over a produced schedule: validity, register lifetimes
    and the Liapunov trace. All findings are [Internal] — a pipeline that
    emits an invalid schedule is buggy, the input is not to blame.

    Codes: [lint.sched-start], [lint.sched-horizon] (catches
    [corrupt-start]), [lint.sched-precedence], [lint.sched-col],
    [lint.fu-conflict] (catches [corrupt-col]), [mem.bank-conflict]
    (catches [collide-mem]); [lint.lifetime-horizon],
    [lint.reg-lifetime-clash], [lint.reg-overallocated] (warning);
    [lint.trace-monotone] (catches [corrupt-trace]), [lint.trace-positive]. *)

val schedule : Core.Schedule.t -> Finding.t list
(** {!Core.Schedule.violations} rendered as findings with node
    attribution (start/horizon ranges, precedence under chaining, column
    ranges and FU-instance conflicts under modulo-latency folding and
    mutex sharing), then [mem.bank-conflict] for each bank whose
    {!Rtl.Datapath.bind_ports} binding needs more ports than it offers. *)

val lifetimes : ?regs:Rtl.Left_edge.t -> Core.Schedule.t -> Finding.t list
(** Live ranges of every value under the schedule. Flags values latched
    outside the horizon; with [regs] (an MFSA binding {e for this same
    schedule}) also flags same-register lifetime clashes and warns when the
    allocation uses more registers than the max-overlap lower bound. *)

val reg_lower_bound : Core.Schedule.t -> int
(** Peak number of simultaneously-live values — no correct binding for
    this schedule uses fewer registers. *)

val trace : Core.Liapunov.Trace.t -> Finding.t list
(** Liapunov stability: every move's energy is positive and non-increasing. *)
