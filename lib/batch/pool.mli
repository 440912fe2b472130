(** Supervised, fault-isolated job execution.

    Each job runs in its own forked worker process ([Unix.fork]; no
    external dependencies), so a segfault, a runaway allocation or an
    infinite loop in one synthesis job cannot take down the batch: the
    parent supervises up to [workers] children at a time behind two hard
    watchdogs —

    - a {b wall-clock deadline}: the worker is SIGKILLed (not asked
      nicely) when its attempt exceeds the deadline — the only time
      limit a synthesis run has;
    - a {b heap ceiling}: a {!Gc} alarm inside the worker aborts the
      job as soon as the OCaml major heap crosses [heap_words].

    Workers stream their result back over a pipe as a typed
    {!Verdict.t}, and leave only through [_exit] — never by unwinding
    into the forked copy of their supervisor.

    {!drive} is the one batch driver: every attempt is appended to the
    {!Journal} (when one is given) before it moves on, so [~resume:true]
    after a crash or SIGKILL skips already-completed jobs
    deterministically; [Timeout]/[Oom] verdicts go through the {!Retry}
    policy — one re-run with the job's [degraded] closure — before
    becoming final. It runs over an {!executor}: {!run} instantiates it
    with a local pool, [Cluster.Dispatcher.run] with the lease-fenced
    cluster. *)

type job = {
  id : string;  (** Stable digest; the journal / resume key. *)
  seed : int;  (** Ordering key for order-independent aggregation. *)
  descr : string;  (** Human label for logs and the journal. *)
  work : unit -> (string, Diag.t) result;
      (** Runs in the worker. [Ok payload] becomes [Done payload];
          [Error d] becomes [Rejected d]. Must not write to stdout. *)
  degraded : (unit -> (string, Diag.t) result) option;
      (** Cheaper variant for the retry attempt (e.g. the baseline
          engines). [None] retries with [work] itself. *)
}

val job :
  ?degraded:(unit -> (string, Diag.t) result) ->
  id:string -> seed:int -> descr:string ->
  (unit -> (string, Diag.t) result) -> job

val oom_exit_code : int
(** Exit code a worker reserves for "heap ceiling breached" (9). Job
    closures must not [exit] with it — or at all. *)

val request_stop : unit -> unit
(** Ask the running driver to stop: its executor's [stop] runs, the
    journal stays flushed (it is fsynced per record), and {!drive}
    returns with [interrupted = true]. Safe to call from a signal
    handler. *)

val stop_pending : unit -> bool
(** Whether {!request_stop} has fired since the last {!drive} started —
    the stop predicate of loops outside the driver ([synth worker]). *)

val install_signal_handlers : unit -> unit
(** Route SIGINT and SIGTERM to {!request_stop}. The CLI exits 130
    when [interrupted] is set. *)

(** {2 Incremental pool}

    The event-loop face of the same machinery: a long-lived supervisor
    (the serve daemon, or {!run} itself) owns a pool, {!submit}s jobs as
    they arrive, folds {!worker_fds} into its own [select], and collects
    {!completion}s from non-blocking {!step} calls. All the containment
    guarantees above (fork isolation, SIGKILL deadline, heap ceiling)
    apply per attempt; retry and journalling policy live in the caller. *)

type t
(** A pool of at most [workers] live worker processes plus a FIFO of
    submitted-but-unstarted attempts. Not thread-safe; drive it from one
    event loop. *)

type completion = {
  c_job : job;
  c_attempt : int;  (** As passed to {!submit}. *)
  c_verdict : Verdict.t;
  c_seconds : float;  (** Attempt wall-clock. *)
}

val journal_record : final:bool -> completion -> Journal.record
(** The journal line of one completed attempt. *)

val create : ?workers:int -> ?heap_words:int -> unit -> t

val submit : t -> ?attempt:int -> deadline:float -> job -> unit
(** Enqueue one attempt ([attempt] defaults to 1). [deadline] is this
    attempt's wall-clock budget in seconds, applied from the moment the
    worker is forked (not from submission). Never blocks and never
    rejects — admission control is the caller's job; see {!load}. *)

val in_flight : t -> int
(** Live worker processes. *)

val queued : t -> int
(** Submitted attempts not yet forked. *)

val load : t -> int
(** [in_flight + queued] — what an admission controller compares against
    its ceiling. *)

val capacity : t -> int
(** The [workers] bound. *)

val worker_fds : t -> Unix.file_descr list
(** Read ends of live worker pipes, for the caller's [select]. Readable
    fds (or a timeout tick — deadlines need one) mean {!step} has work. *)

val step : t -> completion list
(** One non-blocking supervision tick: fork queued attempts into free
    slots, drain worker pipes, SIGKILL attempts past their deadline, and
    reap exited workers. Returns completions in reap order (possibly
    none). Call it at least every ~50ms while {!load} is positive so
    deadlines are enforced promptly. *)

val kill_job : t -> string -> bool
(** Revoke one job by id: a queued attempt is dropped, a live one is
    SIGKILLed and reaped with {e no} completion surfaced — the caller
    has already decided the attempt's fate (lease revoked, duplicate).
    Returns [false] when no queued or live attempt matches. *)

val kill_all : t -> completion list
(** SIGKILL every live worker, reap them all (blocking, but workers die
    to SIGKILL immediately), and discard the queue. Returns the killed
    attempts' completions (verdict [Timeout], by the deadline-kill
    classification) for callers that still owe responses for them. *)

type outcome = {
  records : Journal.record list;
      (** Final record per submitted job, in submission order — including
          records replayed from the journal on resume. Jobs in flight at
          an interrupt have no record. *)
  resumed : int;  (** Jobs skipped because the journal already had them. *)
  interrupted : bool;
}

(** {2 Batch driver} *)

type executor = {
  submit : attempt:int -> deadline:float -> job -> unit;
      (** Enqueue one attempt under its wall-clock budget. *)
  step : unit -> completion list;  (** One non-blocking tick. *)
  fds : unit -> Unix.file_descr list;  (** What to [select] on. *)
  pending : unit -> int;  (** Attempts submitted but not yet completed. *)
  stop : unit -> unit;
      (** What an interrupt does to in-flight work: SIGKILL and reap it,
          surfacing no completion. *)
}
(** Where a batch's attempts run: a local pool, or a dispatcher fanning
    them out to remote workers. *)

val drive :
  ?retry:Retry.policy ->
  ?journal:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  deadline:float ->
  executor ->
  job list ->
  (outcome, Diag.t) result
(** Run the batch on the executor: replay final records from the journal
    on [resume] and submit the rest at their next attempt, journal every
    completed attempt exactly once, resubmit [Timeout]/[Oom] verdicts
    under [retry] (degraded), and stop on {!request_stop} — the
    executor's [stop] runs once and the in-flight attempts stay
    unrecorded, so a resume re-runs them. [deadline] is per-attempt
    wall-clock seconds, scaled per attempt by {!Retry.deadline}. [Error]
    is reserved for environment problems (unreadable or corrupt
    journal); job failures are data — look at the records. *)

val run :
  ?workers:int ->
  ?retry:Retry.policy ->
  ?journal:string ->
  ?resume:bool ->
  ?heap_words:int ->
  ?log:(string -> unit) ->
  deadline:float ->
  job list ->
  (outcome, Diag.t) result
(** {!drive} over a local pool of [workers] (default 1) processes. *)
