(** Length-prefixed wire framing for the synthesis daemon.

    One frame = a 4-byte big-endian payload length followed by that many
    bytes of JSON ({!Batch.Jsonl} documents on both directions). The
    explicit length makes two denial vectors cheap to refuse {e before}
    any parsing: an oversized frame is rejected from its header alone
    ([serve.frame-too-large]), and a connection that dribbles a partial
    frame forever is cut by the daemon's read timeout — the decoder
    exposes {!has_partial} so the timeout only applies mid-frame.

    The blocking helpers ({!send}, {!recv}) serve {!Client}; non-blocking
    connections ({!Conn}) feed their reads through a {!decoder}. All IO
    errors — EPIPE on a vanished peer included — surface as typed
    [serve.io] diagnostics, never as uncaught [Unix_error]s (the process
    must also ignore SIGPIPE; [synth] does so at startup). *)

val header_bytes : int
(** 4. *)

val encode : string -> string
(** Payload to wire bytes (header + payload). *)

(** {2 Incremental decoding} *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder
(** [max_frame] defaults to {!Batch.Jsonl.default_max_document_bytes}. *)

val feed : decoder -> string -> (string list, Diag.t) result
(** Append received bytes; return the payloads of every frame completed
    by them, in order. [Error] ([serve.frame-too-large]) means the peer
    announced a frame over [max_frame] (or a negative length): the
    connection is poisoned and must be closed, since the stream can no
    longer be re-synchronized. *)

val has_partial : decoder -> bool
(** Bytes of an incomplete frame are pending — the read-timeout arming
    condition. *)

(** {2 Blocking IO (client side)} *)

val write_all : Unix.file_descr -> string -> (unit, Diag.t) result
(** EINTR-restarted full write; any other error (EPIPE, ECONNRESET…) is
    a typed [serve.io] error. *)

val send : Unix.file_descr -> string -> (unit, Diag.t) result
(** [write_all] of [encode]. *)

val recv :
  ?timeout:float -> decoder -> Unix.file_descr ->
  (string list, Diag.t) result
(** Block until the bytes read complete at least one frame and return
    every frame they complete, in order — a peer answering pipelined
    requests can complete several in one read, so keep one decoder per
    connection and every frame returned. [Ok []] means the peer closed
    cleanly between frames; the peer closing mid-frame is [serve.io],
    [timeout] elapsing [serve.timeout], a frame breaking the decoder's
    [max_frame] [serve.frame-too-large]. *)
