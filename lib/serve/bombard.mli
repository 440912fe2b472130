(** [synth bombard]: a load-test client for the daemon.

    Runs [jobs] concurrent client processes, each firing [requests]
    requests from a deterministic mixed corpus (schedule points cycling
    over a few option vectors — so keys repeat and the cache and
    coalescing paths are exercised — plus lint and ping traffic), with
    planted faults on request:

    - {b hang}: schedule requests carrying [inject hang] and a 1s
      deadline — must come back as typed [serve.deadline] errors, never
      hang the daemon;
    - {b oversize}: frames over the daemon's limit on fresh connections
      — must come back as [serve.frame-too-large] before the connection
      closes;
    - {b half-close}: requests whose connection shuts down its send side
      immediately after the frame — the response must still arrive.

    The aggregated report asserts the robustness contract: zero
    transport failures (every request got a typed response), the planted
    faults produced exactly their expected codes, and — for warm re-runs
    — a minimum cache hit rate. [b_failures] lists every violated
    assertion; empty means the soak passed. *)

type config = {
  socket : string;
  jobs : int;  (** Concurrent client processes. *)
  requests : int;  (** Requests per client. *)
  graph : string;  (** Corpus graph (builtin name or file). *)
  plant_hang : bool;
  plant_oversize : bool;
  plant_half_close : bool;
  timeout : float;  (** Client-side per-response wait. *)
  expect_hit_rate : float option;
      (** Assert cached/ok ≥ this (warm re-run check). *)
  log : string -> unit;
}

val default : socket:string -> config
(** 8 jobs × 25 requests over [diffeq], all faults off, 30s waits. *)

type report = {
  b_sent : int;
  b_ok : int;
  b_cached : int;
  b_errors : (string * int) list;  (** Typed-error responses by code. *)
  b_io_failures : int;  (** Transport-level failures — must be zero. *)
  b_failures : string list;  (** Violated assertions; empty = pass. *)
}

val run : config -> (report, Diag.t) result
(** Each client is a {!Batch.Pool} job with a deadline of
    [timeout × (requests + 1)]; one that does not come back [Done] counts
    all its requests as transport failures. [Error] only when the
    campaign cannot run at all (fork failure); per-request trouble is
    data in the report. *)

val report_to_json : report -> string
