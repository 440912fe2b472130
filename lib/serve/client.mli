(** Blocking client for the synthesis daemon — the CLI's, the load
    generator's and the test suite's side of the wire. *)

type t

val connect :
  ?timeout:float -> ?backoff:Batch.Retry.policy -> string ->
  (t, Diag.t) result
(** Connect to a Unix-domain socket path, retrying under the shared
    decorrelated-jitter [backoff] policy (default {!Batch.Retry.backoff}:
    4 attempts, 50ms–2s delays) until the policy or [timeout] (default
    5s) is exhausted. The typed [serve.connect] failure reports how many
    attempts were made. *)

val connect_tcp :
  ?timeout:float -> ?backoff:Batch.Retry.policy -> port:int -> unit ->
  (t, Diag.t) result
(** Connect to 127.0.0.1:[port], same retry discipline as {!connect}. *)

val fd : t -> Unix.file_descr
(** For fault injection in tests (half-close via [Unix.shutdown], raw
    writes). *)

val close : t -> unit

val build : op:string -> id:string -> (string * Batch.Jsonl.t) list -> string
(** Request payload: [{"op":…,"id":…,FIELDS}]. *)

val send : t -> string -> (unit, Diag.t) result
(** Send one framed payload. *)

val recv :
  ?timeout:float -> t -> (Protocol.response option, Diag.t) result
(** Next response frame, in arrival order — replies to pipelined
    requests that arrive together are kept for later calls; [Ok None] on
    clean EOF. [timeout] defaults to 30s. *)

val request :
  ?timeout:float -> t -> string -> (Protocol.response, Diag.t) result
(** [send] then [recv]; EOF before a response is a [serve.io] error. *)
