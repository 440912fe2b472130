(** Occupancy of the 2-D placement table for one FU type (paper Fig. 1).

    Backed by word-packed bitset rows: each column carries a bit per control
    step (set iff the cell holds at least one op), so an empty-span fit probe
    costs O(span / word size) word operations and per-column fill counts are
    popcounts over the same words. Occupant identity — needed for
    mutual-exclusion sharing and [conflicts] — lives in a parallel cell
    array, so [free]/[conflicts]/[occupants] stay O(span of the candidate)
    instead of O(placements).

    A placement occupies [span] consecutive steps of one column (one step for
    operations running on pipelined units, which only block their issue
    slot). Two placements may share cells when the operations are mutually
    exclusive (§5.1). Under functional pipelining with latency [L], steps
    congruent modulo [L] conflict because successive loop instances overlap
    (§5.5.2), whether or not the operations are exclusive: only cells at
    the same step belong to one iteration ({!Rtl.Lifetime.clash}). *)

type t

exception Invariant of Diag.t
(** Raised when grid bookkeeping is caught out of sync — e.g. unplacing an op
    that is not placed (double unplace), or a cell record disagreeing with the
    placement table. Carries a typed internal diagnostic instead of silently
    corrupting occupancy state. *)

val create : steps:int -> cols:int -> t

val steps : t -> int
val cols : t -> int

val ensure_cols : t -> int -> unit
(** Grow the table to at least the given number of columns. *)

val place : t -> op:int -> col:int -> step:int -> span:int -> unit
(** Record a placement. Steps beyond the horizon are an error.
    @raise Invalid_argument on out-of-range coordinates or when [op] is
    already placed (use {!unplace} first). *)

val unplace : t -> op:int -> unit
(** Remove one placement, freeing its cells — used by local rescheduling to
    undo a single move without rebuilding the whole grid.
    @raise Invariant when [op] is not placed (double unplace or never
    placed); the grid is left unchanged. *)

val clear : t -> unit
(** Remove every placement (used by local rescheduling restarts); keeps the
    allocated matrix. *)

val steps_overlap : latency:int option -> int -> int -> int -> int -> bool
(** {!Rtl.Lifetime.steps_overlap}, the single occupancy-overlap rule,
    re-exported for the scheduler side. *)

val conflicts :
  t -> latency:int option -> col:int -> step:int -> span:int -> int list
(** Ops already occupying any cell the candidate placement would use, with
    cells compared modulo [latency] when given; most recent first. *)

val free :
  t -> exclusive:(int -> int -> bool) -> latency:int option ->
  op:int -> span:int -> Frames.pos -> bool
(** Whether the candidate placement at [pos] clashes with no occupant:
    {!Rtl.Lifetime.clash} applied cell by cell. *)

val free_at :
  t -> exclusive:(int -> int -> bool) -> latency:int option ->
  op:int -> span:int -> col:int -> step:int -> bool
(** [free] taking the position unboxed — the scheduler's inner-loop probe,
    avoiding a {!Frames.pos} allocation per candidate. *)

val fill : t -> col:int -> int
(** Number of occupied cells in a column (popcount over its packed rows);
    0 for out-of-range columns. *)

val occupants : t -> col:int -> step:int -> int list
(** Ops occupying a cell (without modulo folding), most recent first. *)

val used_cols : t -> int
(** Highest column index holding at least one placement; 0 when empty. *)

val placements : t -> (int * int * int * int) list
(** All placements as [(op, col, step, span)], in placement order. *)
