(** Pool jobs for synthesis workloads: the bridge between
    {!Harness.Driver} / {!Harness.Fuzz} and the generic {!Pool}.

    Two job families share the journal format:

    - {b manifest jobs} ([of_entry]) — one {!Harness.Driver} run per
      manifest line, payload summarising the outcome;
    - {b fuzz jobs} ([fuzz_jobs]) — one fuzz case per job, payload a
      serialized {!Harness.Fuzz.classified}, re-aggregated by seed order
      into the familiar campaign report ([fuzz_report]) so [--jobs 1]
      and [--jobs 8] print identical summaries.

    Every job carries a [degraded] closure for the {!Retry} policy: the
    same run on the [baseline_only] engines. *)

val digest : string -> string
(** Stable hex digest used for job ids (inputs + options + fault). *)

val payload_failed : string -> bool
(** [true] when a [Done] payload reports defects ([status] is
    ["violations"] or ["failed"]); unparsable payloads count as failed. *)

val record_failed : Journal.record -> bool
(** Failure for exit-code purposes: {!Verdict.is_failure} or a [Done]
    with {!payload_failed}. Expected [Rejected] stops are not failures. *)

(** {2 Generic jobs} *)

val generic :
  ?degraded:(unit -> (Jsonl.t, Diag.t) result) ->
  id:string -> seed:int -> descr:string ->
  (unit -> (Jsonl.t, Diag.t) result) -> Pool.job
(** Structured-payload job: the closure's {!Jsonl.t} document is
    serialized as the worker payload, so new job families (e.g.
    {!Explore}) reuse the pool without inventing a string protocol.
    Include a ["status"] field if the records will be summarized through
    {!payload_failed} (payloads without one count as failed). *)

(** {2 Manifest jobs} *)

val of_entry : seed:int -> Manifest.entry -> Pool.job
(** The graph is loaded {e inside the worker}, so a malformed DFG file
    rejects only its own job. [seed] is the submission index. *)

val summarize : Journal.record list -> string
(** Multi-line batch summary in submission order: one line per job plus
    a totals line; deterministic (no timings). *)

(** {2 Fuzz jobs} *)

val fuzz_jobs :
  ?fault:Harness.Fault.t -> ?corpus_dir:string -> campaign_seed:int ->
  Harness.Fuzz.generated list -> Pool.job list

val fuzz_report : Journal.record list -> Harness.Fuzz.report
(** Aggregate final records by seed order. Worker-level verdicts map to
    campaign failures: [Timeout] → kind ["timeout"], [Oom] → ["oom"],
    [Crashed s] → ["crash:<s>"]. *)
