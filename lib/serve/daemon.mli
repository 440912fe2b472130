(** The crash-safe synthesis daemon behind [synth serve].

    One single-threaded [select] loop owns everything: the Unix-domain
    listener (plus an optional localhost TCP listener), every client
    connection, and the {!Batch.Pool}'s worker pipes. Requests arrive as
    length-prefixed JSON frames ({!Frame}, {!Protocol}); synthesis work
    runs in forked pool workers under the pool's wall-clock SIGKILL and
    heap-ceiling watchdogs, so a hanging or crashing job burns one
    worker slot for one deadline — never the daemon.

    Robustness posture, in one paragraph: admission is bounded (the
    {!Admission} queue is the only queue — arrivals beyond it are shed
    with [serve.overloaded] plus a retry-after hint); identical in-flight
    requests coalesce on their content key and are answered together;
    reads are guarded by a max-frame check and a mid-frame timeout
    (slowloris); writes are EPIPE-safe and queued per connection
    ({!Conn}); and the design is {e crash-only} — both durable artifacts
    (the shared {!Explore.Cache} JSONL store and the request
    {!Batch.Journal}) are fsynced per line, so recovery from [kill -9] is
    just a restart: the cache reloads warm and repeated requests answer
    without re-running.
    A store that fails to parse at startup is moved aside to
    [PATH.corrupt] and the daemon starts cold rather than refusing to
    start. SIGTERM/SIGINT begin a graceful drain: listeners close,
    queued and in-flight work finishes (bounded by [drain_timeout], then
    SIGKILL), every waiter gets a response, buffers flush, exit 0. *)

type config = {
  socket : string;
      (** Unix-domain socket path; a stale socket there is replaced, any
          other file is refused ([serve.bind]). *)
  tcp_port : int option;  (** Extra listener on 127.0.0.1:port. *)
  workers : int;  (** Pool slots — the concurrency ceiling. *)
  deadline : float;
      (** Per-request wall-clock ceiling, seconds. A request's own
          [deadline] field may only lower it. *)
  heap_words : int option;  (** Worker heap ceiling ({!Batch.Pool}). *)
  queue_limit : int;  (** Admission queue bound; beyond it, shed. *)
  max_conns : int;
      (** Connection ceiling; excess connects get one [serve.overloaded]
          frame and an immediate close. *)
  max_frame : int;  (** Wire frame / JSON document byte ceiling. *)
  read_timeout : float;
      (** Seconds a partial frame may sit without progress before the
          connection is dropped — and the longest a connection lingers,
          dropping input, after its oversized frame is refused. *)
  drain_timeout : float;
      (** Seconds a drain waits for in-flight work before SIGKILL. *)
  cache_path : string option;  (** Shared result cache (JSONL). *)
  cache_max : int option;  (** Resident-entry cap ({!Explore.Cache}). *)
  journal_path : string option;  (** Request journal (JSONL). *)
  log : string -> unit;
}

val default : socket:string -> config
(** 4 workers, 30s deadline, queue 64, 128 conns, 1 MiB frames, 10s read
    timeout, 5s drain, no TCP, no stores, silent log. *)

val run : ?ready:(unit -> unit) -> config -> (unit, Diag.t) result
(** Serve until SIGTERM/SIGINT, then drain and return [Ok ()] (the CLI
    exits 0). [ready] fires once after the listeners are bound. Errors
    are reserved for startup problems (unbindable socket, a store path
    that cannot be read or opened); per-request failures are responses,
    not exits. *)
