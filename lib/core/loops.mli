(** Nested-loop scheduling (paper §5.2).

    "For nested loops, the operations of the inner most loop are scheduled
    and allocated first, relative to the local time constraint. When this is
    done, the entire loop is treated as a single operation with an execution
    time that is equal to the loop's local time constraint."

    A loop body may contain {e placeholder} nodes (kind {!Dfg.Op.Mov})
    standing for child loops. Scheduling proceeds bottom-up: each child is
    scheduled against its own budget, then its placeholder is expanded into
    a chain of [budget] single-cycle pseudo-operations (the paper's §5.3
    reading of a k-cycle operation), and the parent is scheduled. *)

type tree = {
  body : Dfg.Graph.t;
  budget : int;  (** Local time constraint, in control steps. *)
  children : (string * tree) list;
      (** Child loops, keyed by the placeholder node name in [body]. *)
}

type scheduled = {
  loop_schedule : Schedule.t;
      (** Schedule of the (expanded) loop body; placeholder chains appear as
          class ["mov"] pseudo-operations. *)
  loop_children : (string * scheduled) list;
}

val add_iteration_control :
  Dfg.Graph.t -> counter:string -> bound:string -> (Dfg.Graph.t, Diag.t) result
(** §5.2: "This can be done by adding two more operations (addition and
    comparison or increment and comparison) into the DFG corresponding to
    the body of the loop." Adds inputs [counter]/[bound] (if missing), the
    increment [counter__next = counter + c1] and the continuation test
    [counter__continue = counter__next < bound], so the loop body carries
    its own iteration control when scheduled against the local budget.
    A name colliding with an existing node is a [loop.control-clash]
    input error. *)

val expand_placeholder :
  Dfg.Graph.t -> name:string -> cycles:int -> (Dfg.Graph.t, Diag.t) result
(** Replace node [name] with a chain of [cycles] unit-delay pseudo-ops
    ([name__1] .. [name__cycles-1], final link keeping [name] so consumers
    stay wired). Input errors: [loop.placeholder] when [name] is missing,
    [loop.budget] when [cycles < 1]. *)

val schedule_nested :
  ?config:Config.t -> tree -> (scheduled, Diag.t) result
(** Bottom-up nested scheduling; each level runs time-constrained MFS
    against its own budget. A level's failure keeps its code and category,
    its message prefixed with the loop path (["loop top/inner: ..."]). *)

type allocated = {
  alloc_outcome : Mfsa.outcome;
      (** Datapath of the (expanded) loop body; the placeholder chains
          occupy Mov-capable units standing for the child controllers. *)
  alloc_children : (string * allocated) list;
}

val allocate_nested :
  ?config:Config.t -> ?style:Mfsa.style -> library:Celllib.Library.t ->
  tree -> (allocated, Diag.t) result
(** §5.2 in full: "the operations of the inner most loop are scheduled and
    allocated first" — every level runs MFSA against its own budget, so
    each loop gets its own datapath; a parent sees a child only as the
    placeholder chain's time. *)

val total_cost : allocated -> float
(** Sum of the datapath areas over all loop levels. *)

val total_steps : scheduled -> int
(** Steps of one outermost iteration (child iterations occupy their
    placeholder chains inside the parent budget, so they are already
    counted). *)
