(** Content-addressed result cache for sweep evaluations.

    A {!Batch.Jsonl} store (one fsynced entry per line, like the batch
    journal) keyed by {!Lattice.key} —
    the digest of the canonicalized DFG and the full canonical option
    vector. Repeated or refined sweeps look every point up here first and
    skip evaluation on a hit; {e infeasible} verdicts are cached too, so
    a warm re-run evaluates zero points even when parts of the lattice
    were rejected. Failures (timeout, OOM, crash) are deliberately never
    cached — they may be environmental and must re-run.

    The in-memory side is admission-controlled: an optional [max_entries]
    cap evicts least-recently-touched entries so a long-lived daemon
    sharing one cache across thousands of requests holds bounded memory.
    {!pin}ned (in-flight) keys are never evicted, and hit/miss/eviction
    counters feed the daemon's [stats] endpoint. The JSONL file itself is
    append-only and uncapped — it is the durable store; the cap only
    bounds what stays resident. *)

type outcome =
  | Metrics of Lattice.metrics
  | Infeasible of string  (** The rejecting diagnostic's code. *)

type entry = { key : string; descr : string; outcome : outcome }

val entry_to_json : entry -> string
val entry_of_json : Batch.Jsonl.t -> (entry, string) result

type t

val empty : ?max_entries:int -> unit -> t
(** [max_entries] omitted means unbounded (the one-shot [synth explore]
    default). *)

val load : ?max_entries:int -> string -> (t, Diag.t) result
(** A missing file is an empty cache; an unterminated trailing line is
    dropped; an unreadable path or any other unparsable line is an
    [explore.cache] input error.
    Later entries win on duplicate keys. With a cap, only the most
    recently appended [max_entries] survive the replay; counters start
    at zero either way. *)

val find : t -> string -> entry option
(** A hit bumps the hit counter and the entry's recency; a miss bumps
    the miss counter. *)

val peek : t -> string -> entry option
(** {!find} without the side effects — for introspection and tests. *)

val insert : t -> entry -> unit
(** Add (or overwrite) in memory, then evict down to the cap — never a
    {!pin}ned key. Durability is separate: callers that want the entry
    to survive a restart also {!append} it to the writer. *)

val pin : t -> string -> unit
(** Refcounted eviction shield for in-flight keys. Pin before starting
    work on a key (it need not be resident yet), {!unpin} after the
    response is sent. If every resident key is pinned the cap is soft —
    the cache runs over rather than evicting work in progress. *)

val unpin : t -> string -> unit
val pinned : t -> string -> bool
val size : t -> int

type stats = {
  entries : int;
  max_entries : int option;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> stats

type writer

val open_writer : string -> (writer, Diag.t) result
(** {!Batch.Jsonl.open_writer}: a path that cannot be opened for
    appending is an [explore.cache-write] input error. *)

val append : writer -> entry -> (unit, Diag.t) result
(** {!Batch.Jsonl.append}: failures are typed [explore.cache-write]
    errors, never uncaught [Unix_error]s. *)

val close : writer -> unit
