(** Crash-safe JSONL journal of batch job verdicts: a {!Jsonl} store.

    One line per completed attempt, appended with a single [write(2)] and
    fsynced before {!append} returns, so a SIGKILLed (or power-cut) batch
    leaves a prefix of whole records plus at most one torn trailing line —
    which {!load} drops and {!open_writer} cuts off. {!Pool.run} with
    [~resume:true] reloads the journal and skips every job whose final
    verdict is already recorded, making an interrupted batch
    deterministically resumable. *)

type record = {
  id : string;
      (** Stable job digest (inputs + options + fault); the resume key. *)
  seed : int;
      (** Submission-order / campaign seed — aggregation key, so
          summaries do not depend on worker completion order. *)
  descr : string;  (** Human label, e.g. ["diffeq --cs 4"]. *)
  attempt : int;  (** 1-based; retries append a second record. *)
  final : bool;
      (** [false] only for a [Timeout]/[Oom] attempt the retry policy
          re-ran; resume restarts such jobs at the next attempt. *)
  verdict : Verdict.t;
  seconds : float;  (** Wall-clock of this attempt (informational). *)
}

val record_to_json : record -> string
val record_of_json : Jsonl.t -> (record, string) result

type writer

val open_writer : string -> (writer, Diag.t) result
(** {!Jsonl.open_writer}: a path that cannot be opened for appending is a
    [batch.journal-write] input error. *)

val append : writer -> record -> (unit, Diag.t) result
(** {!Jsonl.append}: failures are typed [batch.journal-write] errors, so
    long-lived supervisors can log and keep running. *)

val close : writer -> unit

val load : string -> (record list, Diag.t) result
(** Records in file order. A missing file is an empty journal; an
    unreadable path or an unparsable non-trailing line is a
    [batch.journal] input error; a torn trailing line is dropped. *)

val finals : record list -> (string, record) Hashtbl.t
(** Last final record per job id. *)

val last_attempts : record list -> (string, record) Hashtbl.t
(** Last record (final or not) per job id. *)

val equivalent : record list -> record list -> bool
(** Same job ids with {!Verdict.equal} final verdicts — the
    resume-after-SIGKILL acceptance check. Order, timings and non-final
    attempts are ignored. *)
