(** FU-instance binding for schedulers that only pick control steps: packs
    each class's execution intervals onto unit columns with the left-edge
    greedy, so baseline schedules carry the same [col] structure MFS
    produces and go through the same {!Core.Schedule.check_diags}. *)

val columns : Core.Config.t -> Dfg.Graph.t -> start:int array -> int array
(** 1-based column per node: each op joins the first column holding no
    op it clashes with under {!Rtl.Lifetime.clash}, with the
    configuration's latency and {!Core.Config.exclusive}. *)
