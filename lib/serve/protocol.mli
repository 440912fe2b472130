(** Typed request/response envelopes for the synthesis daemon.

    Every frame payload is one {!Batch.Jsonl} object. Requests carry an
    ["op"], a client-chosen ["id"] (echoed verbatim in the response so
    clients may pipeline), and op-specific fields:

    {v
    {"op":"schedule","id":"1","graph":"...dfg source...","cs":4,
     "engine":"mfsa","style":2,"weights":"1/1/1/20","library":"default",
     "clock":100,"cse":true}
    {"op":"reschedule","id":"2","base":"...","graph":"...",
     "deltas":[{"kind":"changed","node":"n3"}],"cs":8}
    {"op":"lint","id":"3","spec":"diffeq"}
    {"op":"explore","id":"4","spec_text":"graph ewf\nengine mfsa mfs\n"}
    {"op":"health","id":"5"}   {"op":"stats","id":"6"}  {"op":"ping","id":"7"}
    v}

    A graph comes either inline (["graph"], DFG source) or by name
    (["spec"], a file path or builtin resolved with
    {!Batch.Manifest.load_graph}); ["inject"] plants a process fault
    ([hang] / [segv]) for containment testing. Responses echo the id and
    either [{"status":"ok","cached":BOOL,"payload":…}] or
    [{"status":"error","diag":{…},"retry_after":SECONDS?}] — the [diag]
    object is {!Diag.to_json}'s and round-trips a {!Diag.t} whole, so
    clients get the same typed codes, spans and exit codes as the CLI. *)

type graph_source =
  | Inline of string  (** DFG source text. *)
  | Named of string  (** File path or builtin example name. *)

type request =
  | Schedule of { source : graph_source; point : Explore.Lattice.point }
      (** The request as a lattice point, so it shares its cache key with
          [synth explore]. Omitted fields take the defaults of a bare
          [synth mfsa] run: MFSA, style 1, equal weights, critical-path
          time budget, default library, full widths, declared ports. *)
  | Reschedule of {
      base : graph_source;
      edited : graph_source;
      deltas : Core.Mfs.delta list;
      cs : int;
    }
  | Lint of { source : graph_source; clock : float option }
  | Explore of { spec_text : string }
  | Health
  | Stats
  | Ping

type envelope = {
  req_id : string;
  req_deadline : float option;
      (** Client-requested wall-clock budget (seconds); the daemon clamps
          it to its own per-request ceiling. *)
  request : request;
}

val parse_request : ?max_bytes:int -> string -> (envelope, Diag.t) result
(** Parse one frame payload. Errors are typed: [batch.frame-too-large]
    over the byte ceiling, [batch.jsonl] for malformed JSON,
    [serve.bad-request] for a well-formed document that is not a valid
    request, e.g. a setting out of its {!Harness.Setting} range. *)

val request_op_name : request -> string

(** {2 Responses} *)

val ok_response : id:string -> ?cached:bool -> Batch.Jsonl.t -> string
val error_response : id:string -> ?retry_after:float -> Diag.t -> string

type response = {
  r_id : string;
  r_ok : bool;
  r_cached : bool;
  r_retry_after : float option;
  r_payload : Batch.Jsonl.t option;  (** Present when [r_ok]. *)
  r_diag : Diag.t option;  (** Present when not [r_ok]. *)
}

val parse_response : ?max_bytes:int -> string -> (response, Diag.t) result

(** {2 Worker plane}

    Envelopes for the cluster distribution layer ({!Cluster.Dispatcher}
    / [synth worker]), carried over the same {!Frame} stream. Workers
    send [register] / [heartbeat] / [result]; the dispatcher sends
    [lease] / [revoke] and plain {!ok_response} acks. A lease names a
    job id, a per-attempt deadline and a {e fencing epoch}; a result is
    only accepted when its epoch matches the job's current lease, so a
    revoked worker's late result is a discard, never a double-write. *)

type registration = {
  g_worker : string;  (** Self-chosen worker name (unique per cluster). *)
  g_capacity : int;  (** Concurrent leases the worker will execute. *)
  g_libraries : string list;
      (** Cell-library variants the worker keeps warm. *)
}

type worker_msg =
  | Register of registration
  | Heartbeat of { h_worker : string; h_inflight : int }
  | Lease_result of {
      u_job : string;
      u_epoch : int;  (** Fencing epoch copied from the lease. *)
      u_attempt : int;
      u_seconds : float;
      u_verdict : Batch.Verdict.t;
    }

type cluster_msg =
  | Worker of worker_msg
  | Control of envelope  (** ping/health/stats on the dispatcher socket. *)

val parse_cluster_msg : ?max_bytes:int -> string -> (cluster_msg, Diag.t) result
(** Dispatcher-side parse: worker ops first, any other op through
    {!parse_request}. Same typed errors as {!parse_request}. *)

val register_msg :
  worker:string -> capacity:int -> libraries:string list -> string

val heartbeat_msg : worker:string -> inflight:int -> string

val result_msg :
  job:string -> epoch:int -> attempt:int -> seconds:float ->
  Batch.Verdict.t -> string
(** Verdict fields spliced via {!Batch.Verdict.to_fields}. *)

type downstream =
  | Lease of {
      l_job : string;
      l_epoch : int;
      l_attempt : int;  (** Verdict attempt; >1 runs the degraded closure. *)
      l_deadline : float;  (** Per-attempt wall-clock budget, seconds. *)
      l_wire : Batch.Jsonl.t;  (** Serialized job (see [Cluster.Wire]). *)
    }
  | Revoke of { v_job : string; v_epoch : int }
  | Ack of response  (** Plain response frames (register ack). *)

val lease_msg :
  job:string -> epoch:int -> attempt:int -> deadline:float ->
  Batch.Jsonl.t -> string

val revoke_msg : job:string -> epoch:int -> string

val parse_downstream : ?max_bytes:int -> string -> (downstream, Diag.t) result
(** Worker-side parse of dispatcher frames. *)
