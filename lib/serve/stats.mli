(** Daemon request/verdict counters behind the [stats] endpoint. *)

type t

val create : unit -> t
(** Stamps the start time (uptime baseline). *)

val note_request : t -> string -> unit
(** Count one arrival under its op name. *)

val note_verdict : t -> Batch.Verdict.t -> unit
(** Count one pool completion by verdict class
    (done/rejected/timeout/oom/crashed). *)

val note_ok : t -> unit
(** Count one successful inline (non-pool) response. *)

val note_error : t -> unit
(** Count one typed-error response (bad request, draining, shed…). *)

val to_json :
  t ->
  queue_depth:int ->
  in_flight:int ->
  connections:int ->
  shed:int ->
  workers:Batch.Jsonl.t list ->
  cache:Explore.Cache.stats ->
  Batch.Jsonl.t
(** One stats snapshot: uptime, per-op and per-verdict counters, load
    and cache counters with the derived hit rate, plus the
    connected-worker table ([workers], one object per registered remote
    worker — empty for a plain single-host daemon) so load generators
    and the chaos harness can assert cluster state without parsing
    logs. *)
