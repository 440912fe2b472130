(** Frozen seed move-frame scheduler: the original placement-list grid with
    eager move-frame materialisation, kept unoptimised as a behavioural
    oracle.  [run]/[schedule] mirror [Core.Mfs.run]/[Core.Mfs.schedule] and
    must produce identical outcomes (same starts, columns, makespan and
    Liapunov trace) — the equivalence property test and the scaling
    benchmark both rely on that.

    It keeps the sharing rule it was frozen with: exclusivity excuses any
    two ops whose folded cells meet, including ops of different overlapped
    iterations, which {!Rtl.Lifetime.clash} forbids in [Core.Mfs]. The
    two differ only on guarded graphs under a functional latency, a domain
    no equivalence property draws from. *)

val run :
  ?config:Core.Config.t ->
  ?max_units:(string * int) list ->
  Dfg.Graph.t ->
  Core.Mfs.spec ->
  (Core.Mfs.outcome, string) result

val schedule :
  ?config:Core.Config.t ->
  ?max_units:(string * int) list ->
  Dfg.Graph.t ->
  Core.Mfs.spec ->
  (Core.Schedule.t, string) result
