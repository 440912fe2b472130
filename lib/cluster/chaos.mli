(** Chaos harness for the cluster: plant real process faults under a
    real dispatcher and assert the invariants the design claims.

    The experiment, in one [run]:

    + an undisturbed single-host baseline run (ground truth);
    + a cluster run over forked [Worker] processes with planted faults —
      SIGKILL of a worker mid-lease, optionally a SIGSTOP half-open
      partition (heartbeats stop, process lingers), a slow-loris worker
      that registers and heartbeats but never finishes a lease, and a
      worker that delivers every result twice;
    + a warm [--resume] replay of the chaotic journal;
    + an all-remotes-dead run (endpoint bound, nobody dials) exercising
      local fallback.

    Checks: every job reaches a terminal verdict, exactly one final
    record per job in the journal, verdicts / failure counts / printed
    summary byte-identical to the baseline (chaos must not change the
    exit code), failover and fencing counters actually moved, the warm
    resume re-runs zero jobs and appends nothing, and the dead-cluster
    run completes in-process. *)

type config = {
  dir : string;  (** Scratch directory (sockets, journals). *)
  workers : int;
  jobs : int;
  kill_worker : bool;  (** SIGKILL worker 0 after 2 completions. *)
  stop_worker : bool;  (** SIGSTOP worker 1 at half-way. *)
  slow_loris : bool;
  duplicate : bool;  (** Last worker sends every result twice. *)
  deadline : float;
  seed : int;
  log : string -> unit;
}

val default_config : dir:string -> config

type check = { k_name : string; k_pass : bool; k_detail : string }

type report = {
  checks : check list;
  baseline_seconds : float;
  chaos_seconds : float;
  local_runs : int;
  remote_runs : int;
  fenced : int;
  releases : int;
  worker_deaths : int;
}

val passed : report -> bool
val report_json : report -> Batch.Jsonl.t

val print : report -> (string -> unit) -> unit
(** One PASS/FAIL line per check plus a counters line. *)

val run : config -> (report, Diag.t) result
(** [Error] only for environment problems (cannot bind, malformed
    workload); failed checks are data in the report. *)
