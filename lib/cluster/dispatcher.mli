(** Lease-based multi-host job dispatcher.

    The cluster executor of {!Batch.Pool.drive}: the same incremental
    submit/step/fds interface as {!Batch.Pool}, but jobs carrying a wire
    form ([Cluster.Wire]) are fanned out to remote [synth worker]
    processes as time-bounded leases over {!Serve.Conn} connections. The
    {!Lease} table supplies the fault tolerance: fencing epochs,
    heartbeat liveness, lease expiry, decorrelated-jitter re-lease, and
    escalation to in-process execution when every remote is down (gated
    by [local_fallback]). Journal, resume, verdict-level retry and
    interrupt handling are the driver's, shared with {!Batch.Pool.run}.

    With no endpoints configured the dispatcher degenerates to a plain
    local pool run — [synth batch] without [--hosts] goes through
    {!Batch.Pool.run} directly; this module only enters the picture when
    a cluster is asked for. *)

type config = {
  endpoints : Serve.Endpoint.t list;  (** Listeners workers dial into. *)
  local_workers : int;  (** Local pool width (fallback + wire-less jobs). *)
  heap_words : int option;
  lease : Lease.config;
  local_fallback : bool;
      (** Allow escalation to in-process execution. Forced on when
          [endpoints = []]. *)
  max_frame : int;
  log : string -> unit;
}

val default_config : config

type t

val create : ?config:config -> unit -> (t, Diag.t) result
(** Bind the listeners ([cluster.bind] on failure). *)

val submit :
  t -> ?attempt:int -> ?wire:Batch.Jsonl.t -> deadline:float ->
  Batch.Pool.job -> unit
(** Jobs without a [wire] form (or when no endpoint is bound) run in the
    local pool only. *)

val step : t -> Batch.Pool.completion list
(** One supervision tick: accept/read worker connections, apply lease
    actions (grants, revocations, local fallbacks, expiries), drive the
    local pool. Remote results arrive as ordinary completions — only
    fencing-accepted ones; stale deliveries are discarded and counted. *)

val fds : t -> Unix.file_descr list
(** Listeners + worker connections + local pool pipes, for [select]. *)

val pending : t -> int

val shutdown : t -> unit
(** Close listeners and connections, unlink Unix socket paths, SIGKILL
    the local pool. *)

(** {2 Introspection} (the [health]/[stats] surface and chaos probes) *)

val completed : t -> int
val local_runs : t -> int
val remote_runs : t -> int

val fenced : t -> int
(** Results discarded by the fencing epoch check. *)

val releases : t -> int
(** Leases lost to worker death/expiry and requeued. *)

val worker_deaths : t -> int
val stats_json : t -> now:float -> Batch.Jsonl.t

(** {2 Batch driver} *)

val run :
  ?config:config ->
  ?retry:Batch.Retry.policy ->
  ?journal:string ->
  ?resume:bool ->
  ?tick:(t -> unit) ->
  deadline:float ->
  (Batch.Pool.job * Batch.Jsonl.t option) list ->
  (Batch.Pool.outcome * t, Diag.t) result
(** {!Batch.Pool.drive} over a fresh dispatcher and (job, wire) pairs:
    journalled exactly once per accepted verdict, resumable ([~resume]
    skips jobs with final records, byte-identically replaying their
    outcomes), interruptible via {!Batch.Pool.request_stop} (local
    attempts are SIGKILLed, leased ones die with their connections).
    [retry] is the {e verdict-level} policy (Timeout/Oom → degraded
    re-run); transport failovers live in [config.lease.retry] and never
    consume verdict attempts. [tick] runs once per supervision iteration,
    before {!step} — the chaos harness's fault-injection hook. The
    returned [t] is already shut down; it remains valid for the
    introspection counters. *)
