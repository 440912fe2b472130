(** Scheduling results and their validity rules.

    A schedule assigns every DFG operation a start control step and (when the
    producer performs binding) an FU-instance column within its
    single-function class. {!violations} is the single source of truth for
    validity used by unit tests, property tests, and integration tests — for
    MFS, MFSA projections and every baseline scheduler alike. *)

type t = {
  graph : Dfg.Graph.t;
  config : Config.t;
  start : int array;  (** Start control step per node id, 1-based. *)
  col : int array option;
      (** FU instance within the node's class (1-based); [None] for
          schedulers that do not bind instances (e.g. force-directed). *)
  offset : float array;
      (** Intra-step start offset in ns when chaining is enabled; all zero
          otherwise. *)
  cs : int;  (** Schedule horizon in control steps. *)
}

val make :
  ?col:int array -> ?offset:float array -> config:Config.t -> cs:int ->
  Dfg.Graph.t -> int array -> t

val delay : t -> int -> int
(** Execution cycles of a node. *)

val finish : t -> int -> int
(** Last control step the node is executing: [start + delay - 1]. *)

val fu_counts : t -> (string * int) list
(** Units needed per class: the highest bound column when instances are
    bound, otherwise the peak concurrency over the (latency-folded) steps,
    with ops that do not {!Rtl.Lifetime.clash} packed onto one unit. *)

val makespan : t -> int
(** Last finish step over all operations. *)

val chain_allowed : t -> int -> int -> bool
(** [chain_allowed t p i]: consumer [i] may read producer [p] through a
    direct wire in the same step — both single-cycle, same start step, and
    the accumulated propagation delays fit the clock period. Always false
    without chaining. *)

type violation =
  | Start_range of int  (** Op starts before step 1. *)
  | Horizon of int  (** Op finishes past the horizon. *)
  | Precedence of int * int
      (** [(i, p)]: op [i] reads predecessor [p] before it finishes (and
          the pair may not chain). *)
  | Col_range of int  (** Op bound to a column below 1. *)
  | Fu_conflict of int * int
      (** [(i, j)], [i < j]: same class and column, and the ops
          {!Rtl.Lifetime.clash} (cells folded by the functional-pipelining
          latency, exclusivity by {!Config.exclusive}). *)

val violations : t -> violation list
(** Every violation, per op in id order (start, horizon, then each
    predecessor), followed — when columns are bound — by each op's column
    range and its FU conflicts with higher ids. The one schedule-validity
    audit: {!check_diags} and the static analyzer's schedule lint both
    render it. *)

val check_diags : t -> Diag.t list
(** {!violations} as typed internal diagnostics with stable [schedule.*]
    codes, in the same order. [[]] means the schedule is valid. *)

val check_diag : t -> (unit, Diag.t) result
(** {!check_diags} folded into a single [schedule.invalid] internal
    diagnostic — a produced-then-invalid schedule is always a bug, never bad
    input. *)

val pp : Format.formatter -> t -> unit
(** Placement-table listing: one line per step per class. *)
