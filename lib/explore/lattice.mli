(** Job lattices: a {!Spec.t} expanded into concrete sweep points, their
    content-addressed keys, and their evaluation as {!Batch.Pool} jobs. *)

type point = {
  index : int;  (** Lattice position — the pool seed / [inject] anchor. *)
  engine : Spec.engine;
  style : Core.Mfsa.style;
  weights : Core.Mfsa.weights;
  constr : Spec.constraint_;
  library : Spec.library_variant;
  widths : bool;  (** Width-aware costing via [Analysis.Ranges]. *)
  ports : int option;
      (** Bank-port override ({!Core.Config.mem_ports}); [None] keeps the
          graph's [mem] declarations. *)
  clock : float option;
  cse : bool;
  fault : Harness.Fault.t option;
}

val expand : Spec.t -> point list
(** Cross product of the spec's axes in fixed nesting order (engine,
    library, style, weights, constraint — innermost fastest), with
    points that would evaluate identically deduplicated: style and
    weights are normalized for the non-MFSA engines before comparison,
    so [engine mfs] crossed with three weight vectors yields one point
    per constraint. Indices are assigned after deduplication; [inject]
    faults attach by index. *)

val descr : point -> string
(** Human label, e.g. ["mfsa lib=default s2 w=1/1/1/20 T=17"]. *)

val settings : point -> (string * string) list
(** The axes that name a point — engine, library, style, weights,
    constraint — in their {!Harness.Setting} text forms: the key's
    option vector and the report columns. *)

val key : graph:Dfg.Graph.t -> point -> string
(** Content-addressed identity — the stable hex digest of the
    canonicalized DFG ({!Dfg.Parser.to_source}) and the canonical option
    vector: {!Core.Config.canonical} plus every explore-level axis as
    [name=value], sorted by name. Used as the {!Cache} key {e and} the
    pool/job journal id, so a resumed or repeated sweep recognizes
    completed points under either store. *)

(** {2 Metrics} *)

type metrics = {
  m_csteps : int;  (** Achieved schedule horizon. *)
  m_units : int;  (** Total FU count over all classes. *)
  m_alu : float;  (** ALU area, um^2. *)
  m_mux : float;  (** Multiplexer area, um^2. *)
  m_reg : int;  (** Register count. *)
  m_total : float;  (** Total datapath area, um^2. *)
  m_seconds : float;  (** Wall-clock of the evaluation. *)
}

val objectives : metrics -> float array
(** The deterministic dominance vector (csteps, ALU area, MUX area,
    registers), all minimized — the default front. *)

val objectives_with_time : metrics -> float array
(** {!objectives} extended with wall time as a fifth axis (front contents
    then depend on machine load; reporting only). *)

val metrics_to_json : metrics -> Batch.Jsonl.t
val metrics_of_json : Batch.Jsonl.t -> (metrics, string) result

(** {2 Evaluation} *)

val evaluate : graph:Dfg.Graph.t -> point -> (metrics, Diag.t) result
(** Synthesize the point ({!Harness.Flow.synthesize}) and read its
    metrics: MFSA costs its own binding; MFS and the list baseline are
    costed through the column binding. A list schedule carries no FU
    columns, so its [m_units] is its peak concurrency
    ({!Core.Schedule.fu_counts}). A
    rejection keeps the engine's code and category: the list baseline's
    are infeasible, a binding failure is internal.
    Planted process faults hang or kill the calling process — evaluate
    such points only under the supervised pool. *)

val job : graph:Dfg.Graph.t -> point -> Batch.Pool.job
(** The point as a supervised pool job: id = {!key}, seed = [index],
    payload = {!metrics_to_json}. *)

(** {2 Wire form}

    Serialization for remote evaluation: a pool job's closure cannot
    cross a socket, so the cluster ships the graph source plus the point
    and the worker rebuilds the job — arriving at the {e same}
    content-addressed {!key} (the key digests the canonicalized source,
    which round-trips through {!Dfg.Parser.to_source}). *)

val point_to_json : point -> Batch.Jsonl.t
(** Every setting in its {!Harness.Setting} text form, numbers as
    {!Batch.Jsonl} writes them: both read back exactly. *)

val point_of_json : Batch.Jsonl.t -> (point, string) result
(** [point_of_json (point_to_json p) = Ok p]; each setting is parsed by
    its {!Harness.Setting}, so an out-of-range one is an error. *)

val wire : graph:Dfg.Graph.t -> point -> Batch.Jsonl.t
(** [{"family":"explore","graph":SOURCE,"point":{…}}] — the lease
    payload a [synth worker] turns back into a pool job. *)

val job_of_wire : Batch.Jsonl.t -> (Batch.Pool.job, string) result
(** Rebuild {!job} from a {!wire} document. *)
