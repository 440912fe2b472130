(** FU-instance binding for schedulers that only pick control steps: packs
    each class's execution intervals onto unit columns with the left-edge
    greedy, so baseline schedules carry the same [col] structure MFS
    produces and go through the same {!Core.Schedule.check_diags}. *)

val columns : Core.Config.t -> Dfg.Graph.t -> start:int array -> int array
(** 1-based column per node; mutually-exclusive operations may share a
    column cell when the configuration allows it, and functional-latency
    folding is honoured. *)
