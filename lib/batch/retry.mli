(** Retry policies: verdict-level re-runs and transport-level backoff.

    One [policy] record serves two consumers. The {e verdict} side
    ({!should_retry} / {!deadline}) re-runs a job that hit the
    wall-clock watchdog ([Timeout]) or the heap ceiling ([Oom]) — a
    possible straggler rather than a defect — once with degraded options
    (the job's [degraded] closure, typically forced baseline engines)
    under a scaled deadline before classifying
    it as failed. [Rejected], [Crashed] and [Done] verdicts are never
    retried: they are deterministic outcomes, not resource exhaustion.

    The {e transport} side ({!next_delay} / {!exhausted}) paces
    reconnects and cluster re-leases with decorrelated-jitter
    exponential backoff between [base_delay] and [max_delay]; it is
    shared by the cluster dispatcher's re-leases and the serve client's
    reconnects so every retry loop in the system spreads out the same
    way. *)

type policy = {
  max_attempts : int;  (** Total attempts, retries included. *)
  deadline_scale : float;
      (** Deadline multiplier per extra attempt; degraded engines should
          need {e less} time, so the default shrinks the window. *)
  base_delay : float;
      (** Backoff floor (seconds) between transport attempts. *)
  max_delay : float;  (** Backoff ceiling (seconds). *)
}

val default : policy
(** Two attempts, deadline halved on the retry; 50ms–2s backoff. *)

val none : policy
(** Single attempt — every [Timeout]/[Oom] is immediately final. *)

val of_retries : int -> policy
(** [of_retries n] allows [n] re-runs after the first attempt. *)

val backoff :
  ?max_attempts:int -> ?base_delay:float -> ?max_delay:float -> unit -> policy
(** Transport-flavoured policy: [max_attempts] (default 4) connect or
    lease tries with unscaled deadlines, jittered delays in
    [[base_delay], max_delay]] (defaults 50ms, 2s). *)

val forever : ?base_delay:float -> ?max_delay:float -> unit -> policy
(** {!backoff} with an unbounded attempt budget — for a worker that must
    outlive dispatcher restarts. *)

val exhausted : policy -> attempt:int -> bool
(** [attempt >= max_attempts] — no further tries allowed. *)

val should_retry : policy -> attempt:int -> Verdict.t -> bool

val deadline : policy -> attempt:int -> float -> float
(** Deadline for the given 1-based [attempt]. *)

val next_delay : policy -> rng:Random.State.t -> prev:float -> float
(** Next decorrelated-jitter delay: uniform in
    [[base_delay], min (max_delay, 3 * prev)]. Pass the previous delay
    (or [0.] before the first); keep [rng] per retry loop so tests can
    seed it deterministically. *)
