(** One non-blocking framed connection: the socket layer shared by the
    daemon's clients, the dispatcher's workers and the worker's dispatcher
    link.

    Input goes through a {!Frame.decoder}; output is a queue of encoded
    frames plus an offset into the head, written opportunistically, so a
    slow reader costs memory linear in the backlog and never a copy of
    it. A write error (EPIPE, ECONNRESET — the process must ignore
    SIGPIPE) closes the connection instead of raising. What a read's end
    of stream, I/O error or oversized frame means is the caller's call:
    {!read} reports it and leaves the connection open. *)

type t

val create : ?max_frame:int -> Unix.file_descr -> t
(** Take over a connected socket and make it non-blocking. [max_frame]
    bounds incoming frames ({!Frame.decoder}). *)

val fd : t -> Unix.file_descr
val alive : t -> bool

val close : t -> unit
(** Close the socket and drop any unwritten output. Idempotent. *)

val send : t -> string -> unit
(** Queue one frame carrying the payload and {!flush}. A no-op once
    closed. *)

val flush : t -> unit
(** Write queued output until it is gone or the socket would block. *)

val has_output : t -> bool
(** Queued output remains (never true once closed) — the caller's cue
    to [select] for writability. *)

val has_partial : t -> bool
(** An incomplete incoming frame is pending — the read-timeout arming
    condition. *)

type status =
  | Open  (** Drained until the socket would block. *)
  | Eof  (** The peer closed (or half-closed) its sending side. *)
  | Failed  (** A read failed, or the connection was already closed. *)
  | Too_large of Diag.t
      (** A frame header broke [max_frame] ([serve.frame-too-large]);
          the stream cannot be re-synchronized. *)

val read : t -> string list * status
(** Read until the socket would block or the stream ends, returning the
    payloads of every frame completed on the way, in order, and why the
    read stopped. After [Too_large], each read drops one chunk of
    whatever arrives and reports [Open], [Eof] or [Failed]: a caller can
    keep the connection while the peer finishes sending, so the peer
    reads a refusal instead of failing its write. *)
