(** Scheduling options shared by MFS, MFSA, the schedule checker and the
    baseline schedulers. *)

type chaining = {
  prop_delay : Dfg.Op.kind -> float;  (** Combinational delay, ns. *)
  clock : float;  (** Control-step clock period T, ns (paper §5.4). *)
}

type t = {
  delays : Dfg.Op.kind -> int;
      (** Execution time in control steps (multi-cycle operations, §5.3). *)
  pipelined : Dfg.Op.kind -> bool;
      (** Kinds executed on pipelined FUs: a unit is busy only during the
          issue step; the result still takes [delays] steps (structural
          pipelining, §5.5.1). *)
  chaining : chaining option;
      (** When set, data-dependent operations may share a control step if
          their accumulated propagation delay fits in the clock period. *)
  node_delay : (string * float) list;
      (** Per-node propagation-delay overrides (ns), keyed by node name.
          Takes precedence over [chaining.prop_delay] for chaining
          probes; typically width-scaled delays from [Analysis.Ranges]
          ([node_delays]). Empty = per-kind delays everywhere. *)
  functional_latency : int option;
      (** Loop-folding latency L: positions [t] and [t + k*L] run
          concurrently, so they conflict on the same FU instance (§5.5.2). *)
  share_mutex : bool;
      (** Allow mutually-exclusive operations to share an FU instance and a
          control step (§5.1). *)
  mem_ports : int option;
      (** Override of every memory bank's port count. [None] honours the
          graph's own [mem BANK ports N] declarations (1 when
          undeclared); [Some p] forces [p] ports on every bank — the
          bank/port axis the CLI and the design-space explorer sweep. *)
}

val default : t
(** Unit delays, nothing pipelined, no chaining, no folding, mutex sharing
    enabled. *)

val of_library : Celllib.Library.t -> t
(** Delays and pipelining flags taken from a cell library: a kind is
    pipelined when every library unit implementing it is multi-stage. *)

val exclusive : t -> Dfg.Graph.t -> int -> int -> bool
(** [exclusive t g i j]: [share_mutex] is on and ops [i] and [j] are
    mutually exclusive, so they may share a unit in the same iteration. *)

val delay : t -> Dfg.Op.kind -> int
(** [max 1 (delays kind)]. *)

val span : t -> Dfg.Op.kind -> int
(** Steps during which the op {e occupies} its FU: 1 for pipelined kinds,
    [delay] otherwise. *)

val bank_ports : t -> Dfg.Graph.t -> string -> int
(** Effective port count of a bank under this configuration:
    [mem_ports] when set, else the graph's declaration (default 1). *)

val mem_limits : t -> Dfg.Graph.t -> (string * int) list
(** Hard capacity limits induced by the graph's memory banks: one
    [("mem:BANK", ports)] pair per bank in use. Schedulers fold these
    into their per-class unit limits so port conflicts land in the
    Forbidden Frame instead of producing invalid schedules. *)

val node_prop_override : t -> Dfg.Graph.node -> float option
(** The node's [node_delay] entry, if any. *)

val node_prop : t -> (Dfg.Op.kind -> float) -> Dfg.Graph.node -> float
(** The node's effective propagation delay: its [node_delay] override or
    the given per-kind fallback. *)

val canonical : t -> string
(** Canonical one-line rendering of the full option vector. The
    functional fields ([delays], [pipelined], chaining propagation
    delays) are sampled over the closed {!Dfg.Op.all} alphabet and every
    field is emitted as [name=value] in sorted-by-name order, so the
    string is stable across record field reordering and across default
    changes: two configurations observably equal over the kind alphabet
    canonicalize identically. Used as the option half of the
    design-space-exploration cache key ([Explore.Lattice.key]). *)

val hash : t -> string
(** Stable hex digest of {!canonical}. *)
