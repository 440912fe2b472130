(** Endpoints: where a listener binds and a client dials.

    The textual form is either a Unix-domain socket path or [tcp:PORT]
    (loopback); [--hosts] takes a comma-separated list. The serve daemon
    and the cluster dispatcher both listen through {!listen} and
    {!accept}; cluster workers dial through {!connect}. *)

type t = Unix_path of string | Tcp of int

val parse : string -> (t, Diag.t) result
(** [cluster.endpoint] usage error on malformed input. *)

val parse_list : string -> (t list, Diag.t) result
(** Comma-separated endpoints; empty segments are skipped. *)

val describe : t -> string

val listen : code:string -> t list -> (Unix.file_descr list, Diag.t) result
(** Bind a non-blocking listener on each endpoint, in order. A failure is
    a [code] input error and leaves none of them bound. A stale Unix
    socket at a path is replaced — crash-only restarts — but any other
    file there is refused and left intact. *)

val accept : Unix.file_descr -> Unix.file_descr list
(** Every connection pending on a non-blocking listener, in arrival
    order; none when the queue is empty or accepting fails. *)

val connect :
  ?timeout:float -> ?backoff:Batch.Retry.policy -> t ->
  (Client.t, Diag.t) result
(** Dial the endpoint through {!Client}'s backoff connect. *)

val close : t -> Unix.file_descr -> unit
(** Close a listener bound by {!listen} and remove its Unix socket file
    (nothing to remove for TCP). *)
