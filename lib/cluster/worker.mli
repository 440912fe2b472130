(** The [synth worker] engine: dial a dispatcher, register, execute
    leases through a local {!Batch.Pool}, heartbeat, and survive
    dispatcher restarts by reconnecting under the shared backoff policy.

    Crash-only by construction: the worker holds no durable state. Every
    lease it loses (its own crash, a revocation, a dropped connection)
    is the dispatcher's to replay; any result it delivers late or twice
    is fenced off by the lease epoch. *)

type config = {
  endpoint : Serve.Endpoint.t;
  name : string;  (** Cluster-unique; re-registration supersedes. *)
  capacity : int;  (** Concurrent leases (local pool width). *)
  heap_words : int option;  (** Per-job heap ceiling. *)
  heartbeat_interval : float;
  reconnect : Batch.Retry.policy;
      (** Dial/redial schedule, shared shape with {!Serve.Client}. *)
  max_sessions : int;
      (** Consecutive failed dials before [cluster.disconnected];
          [max_int] = reconnect forever. *)
  libraries : string list;  (** Advertised warm cell-library variants. *)
  duplicate_results : bool;
      (** Chaos hook: send every result twice (fencing exercise). *)
  max_frame : int;
  log : string -> unit;
}

val default_config : endpoint:Serve.Endpoint.t -> name:string -> config

val run : ?stop:(unit -> bool) -> config -> (unit, Diag.t) result
(** Blocks until [stop ()] turns true ([Ok ()]) or the dial budget is
    exhausted ([cluster.disconnected]). A lost connection kills all
    in-flight lease attempts (their results would only be fenced
    discards) and redials with a fresh budget. *)
