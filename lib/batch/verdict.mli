(** Typed outcome of one supervised batch job.

    The lattice the pool classifies every worker exit into:

    - [Done payload] — the job ran to completion; [payload] is the
      job-defined JSON summary (see {!Jobs}) streamed back over the
      worker pipe.
    - [Rejected diag] — the job stopped with an expected diagnostic
      (malformed input, infeasible constraints). Not a failure unless
      the diagnostic is itself a bug ({!Diag.is_bug}).
    - [Timeout] — the wall-clock watchdog SIGKILLed the worker at its
      deadline. {!Harness.Driver} sets no time limit of its own, so an
      in-stage infinite loop dies here.
    - [Oom] — the worker's {!Gc} alarm found the OCaml heap above the
      ceiling and aborted the job before the machine started swapping.
    - [Crashed] — the worker died any other way: a genuine signal
      (SIGSEGV, …) or an unexpected exit code. *)

type crash = Signal of string | Exit of int

type t =
  | Done of string  (** Job-defined JSON payload. *)
  | Rejected of Diag.t
  | Timeout
  | Oom
  | Crashed of crash

val label : t -> string
(** ["done" | "rejected" | "timeout" | "oom" | "crashed"] — the stable
    journal tag. *)

val is_failure : t -> bool
(** [Timeout], [Oom], [Crashed], and [Rejected d] with [Diag.is_bug d].
    A [Done] verdict's cleanliness is the job layer's call (the payload
    may report violations); see {!Jobs.payload_failed}. *)

val describe : t -> string
(** Human one-liner, e.g. ["crashed (SIGSEGV)"]. *)

val signal_name : int -> string
(** OCaml signal number to a stable name ("SIGSEGV", …); unknown numbers
    render as ["signal <n>"]. *)

val diag_to_json : Diag.t -> Jsonl.t
(** {!Diag.to_json}'s document, all six fields: the one encoding of a
    diagnostic in the pool pipe, journals, serve and cluster messages. *)

val diag_of_json : Jsonl.t -> (Diag.t, string) result
(** Its inverse; an absent severity, file or span defaults, so older
    records with only code, category and message still load. *)

val to_fields : t -> (string * Jsonl.t) list
(** Journal-record fields: [verdict] plus [payload] / [diag] / [signal]
    / [exit] as applicable. *)

val of_fields : Jsonl.t -> (t, string) result
(** Inverse of {!to_fields} over a record object. *)

val equal : t -> t -> bool
(** Structural equality used by the resume-equivalence check (diag
    compared by code + category + message). *)
