(** Serializable job descriptions — the payload of a lease.

    A {!Batch.Pool.job}'s closure cannot cross a socket, so every
    distributable job family has a wire form the worker rebuilds locally:

    - [manifest]: the re-parseable manifest line ({!Batch.Manifest.descr}
      round-trips through {!Batch.Manifest.parse_line}) plus the
      submission seed. Rebuilding with {!Batch.Jobs.of_entry} reproduces
      the {e same} content-addressed job id, so the dispatcher's journal
      and the worker agree on identity. Manifest lines naming graph
      {e files} (rather than builtins) require those files on the worker
      host.
    - [explore]: the canonicalized DFG source plus the lattice point
      ({!Explore.Lattice.wire}), rebuilt with
      {!Explore.Lattice.job_of_wire} — again id-stable because the key
      digests the canonical source.

    Fuzz jobs have no wire form (their closures capture in-process RNG
    state); the dispatcher runs wire-less jobs in its local pool. *)

val of_entry : seed:int -> Batch.Manifest.entry -> Batch.Jsonl.t

val to_job : Batch.Jsonl.t -> (Batch.Pool.job, Diag.t) result
(** Worker side: rebuild the pool job ([cluster.bad-wire] on a malformed
    or unknown-family document). *)
