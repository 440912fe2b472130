(** Seeded fault injection for the fuzz harness and the batch layer.

    Two families:

    - {b Artifact corruptions} ({!all}) — deliberate corruptions of
      intermediate pipeline artifacts, used to prove the cross-stage
      invariants actually fire. Each injector returns [None] when the
      artifact offers no place to plant its fault (e.g. no trace on a
      fallback schedule), so campaigns can tell "not applicable" apart
      from "injected but missed".
    - {b Process faults} ({!process}) — [Hang] and [Segv] take the whole
      worker process down (or never return). No invariant can catch
      them; they exist to prove the batch pool's watchdogs and crash
      containment work end-to-end. Injecting them outside a supervised
      worker hangs or kills the calling process — that is the point. *)

type t =
  | Corrupt_start  (** Push an operation past the schedule horizon. *)
  | Corrupt_col
      (** Merge two concurrent same-class operations onto one FU column
          (or bind out of range when no such pair exists). *)
  | Corrupt_trace  (** Make the first Liapunov move energy-increasing. *)
  | Collide_mem
      (** Fold one memory load onto a same-bank load's step, oversubscribing
          the bank's ports without disturbing precedence. Only applicable to
          graphs with at least two loads of one bank at distinct steps, so it
          is excluded from {!all} (the fuzz workloads are array-free). *)
  | Skew_delay
      (** Lengthen one operation's occupancy as seen by the datapath
          checker, creating an ALU overlap. *)
  | Hang
      (** Spin forever inside the pipeline — only the batch watchdog's
          SIGKILL ends it. *)
  | Segv  (** Die of a genuine SIGSEGV inside the pipeline. *)

val all : t list
(** The artifact corruptions — every fault an invariant can catch.
    Process faults are deliberately excluded: iterate {!process} under a
    supervised pool instead. *)

val process : t list
(** [[Hang; Segv]]. *)

val is_process : t -> bool

val to_string : t -> string
val of_string : string -> t option

val names : string list
(** Every fault's {!to_string}, in declaration order: the list every
    "unknown fault" message quotes. *)

val corrupt_start : Core.Schedule.t -> Core.Schedule.t option
val corrupt_col : Core.Schedule.t -> Core.Schedule.t option
val corrupt_trace : Core.Liapunov.Trace.t -> Core.Liapunov.Trace.t option

val collide_mem : Core.Schedule.t -> Core.Schedule.t option
(** [None] when no bank has two loads scheduled at distinct steps. *)

val skew_delay :
  Rtl.Datapath.t -> delay:(int -> int) -> (int -> int) option
(** A skewed delay function to hand {!Rtl.Check.datapath}; [None] when no
    ALU has back-to-back occupants to overlap. *)

val corrupt :
  t -> Core.Schedule.t -> Core.Liapunov.Trace.t option ->
  (Core.Schedule.t * Core.Liapunov.Trace.t option) option
(** Plant an artifact fault in a schedule and its Liapunov trace: the
    corrupted pair, or [None] when the fault does not apply to them.
    [Skew_delay] targets the datapath's delay model ({!skew_delay}) and
    the process faults target the process ({!crash}), so both are
    [None] here. *)

val crash : t -> unit
(** Never returns for a process fault ({!hang}, {!segv}); returns at
    once for an artifact fault. *)

val hang : unit -> 'a
(** Never returns: a CPU-burning loop the compiler cannot elide. *)

val segv : unit -> 'a
(** Never returns: raises SIGSEGV in the current process (falls back to
    SIGABRT should the runtime swallow it). *)
